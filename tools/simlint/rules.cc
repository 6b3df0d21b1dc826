#include "rules.hh"

#include <algorithm>
#include <cctype>
#include <set>

namespace v3sim::simlint
{

namespace
{

bool
pathContains(const std::string &path, const char *needle)
{
    return path.find(needle) != std::string::npos;
}

/** Context handed to every per-TU rule. */
struct Ctx
{
    const std::string &path;
    const Stripped &stripped;
    const std::vector<Token> &tokens;
    const SymbolTable &symbols;
    std::vector<Finding> &out;

    bool allowed(const char *rule, int line) const
    {
        return stripped.allowed(rule, line);
    }
    void report(int line, const char *rule,
                const std::string &message) const
    {
        if (!allowed(rule, line))
            out.push_back({path, line, rule, message});
    }
};

/** Index of the ')' matching the '(' at @p open, or npos. */
size_t
matchParen(const std::vector<Token> &tokens, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].is("("))
            ++depth;
        else if (tokens[i].is(")") && --depth == 0)
            return i;
    }
    return std::string::npos;
}

// ---------------------------------------------------------------
// wall-clock / raw-random
// ---------------------------------------------------------------

void
checkWallClock(const Ctx &ctx)
{
    static const std::set<std::string> kWords = {
        "system_clock",     "steady_clock", "high_resolution_clock",
        "gettimeofday",     "clock_gettime", "localtime",
        "gmtime",           "mktime",
    };
    static const std::set<std::string> kCalls = {"time", "clock"};
    const auto &tokens = ctx.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident)
            continue;
        if (kWords.count(tokens[i].text)) {
            ctx.report(tokens[i].line, "wall-clock",
                       "wall-clock source `" + tokens[i].text +
                           "`; simulated time must come from "
                           "sim::EventQueue");
        } else if (kCalls.count(tokens[i].text) &&
                   i + 1 < tokens.size() && tokens[i + 1].is("(")) {
            ctx.report(tokens[i].line, "wall-clock",
                       "wall-clock call `" + tokens[i].text +
                           "()`; simulated time must come from "
                           "sim::EventQueue");
        }
    }
}

void
checkRawRandom(const Ctx &ctx)
{
    // The deterministic engine home may name engines in its own
    // implementation (seeding helpers, docs fixtures).
    if (pathContains(ctx.path, "sim/random."))
        return;
    static const std::set<std::string> kWords = {
        "random_device", "mt19937",  "mt19937_64",
        "minstd_rand",   "drand48",  "lrand48",
        "default_random_engine",
    };
    static const std::set<std::string> kCalls = {"rand", "srand"};
    const auto &tokens = ctx.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident)
            continue;
        if (kWords.count(tokens[i].text)) {
            ctx.report(tokens[i].line, "raw-random",
                       "nondeterministic randomness `" +
                           tokens[i].text +
                           "`; use sim::Rng forks (sim/random.hh)");
        } else if (kCalls.count(tokens[i].text) &&
                   i + 1 < tokens.size() && tokens[i + 1].is("(")) {
            ctx.report(tokens[i].line, "raw-random",
                       "nondeterministic call `" + tokens[i].text +
                           "()`; use sim::Rng forks "
                           "(sim/random.hh)");
        }
    }
}

// ---------------------------------------------------------------
// unordered-iter / ptr-map-iter
// ---------------------------------------------------------------

void
checkIteration(const Ctx &ctx,
               const std::vector<TrackedVar> &tracked)
{
    if (tracked.empty())
        return;
    std::map<std::string, const TrackedVar *> by_name;
    for (const TrackedVar &t : tracked)
        by_name.emplace(t.name, &t);

    auto report = [&](const TrackedVar &t, int line_no,
                      const std::string &how) {
        const char *rule = t.kind == ContainerKind::PtrKeyed
                               ? "ptr-map-iter"
                               : "unordered-iter";
        std::string why =
            t.kind == ContainerKind::PtrKeyed
                ? "pointer-keyed ordered container: iteration "
                  "order follows addresses (ASLR-dependent)"
                : "hash-table iteration order is unspecified";
        ctx.report(line_no, rule,
                   how + " over `" + t.name + "` (declared line " +
                       std::to_string(t.line) + "): " + why +
                       "; use std::map/vector or annotate "
                       "simlint:allow(" +
                       rule + ": <reason>)");
    };

    const auto &tokens = ctx.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident)
            continue;
        auto it = by_name.find(tokens[i].text);
        if (it == by_name.end())
            continue;
        const TrackedVar &t = *it->second;

        // `name.begin()` / cbegin / rbegin: an iterator loop.
        // (`.end()` alone is the find-compare idiom.)
        if (i + 2 < tokens.size() && tokens[i + 1].is(".") &&
            (tokens[i + 2].ident("begin") ||
             tokens[i + 2].ident("cbegin") ||
             tokens[i + 2].ident("rbegin"))) {
            report(t, tokens[i].line, "iterator loop");
            continue;
        }

        // Ranged-for: `for (... : [qualifiers.]name)`. Walk back
        // over member qualification, require a ':' then a `for`
        // within the same header (no statement boundary between).
        size_t j = i;
        while (j >= 2 && (tokens[j - 1].is(".") ||
                          tokens[j - 1].is("->") ||
                          tokens[j - 1].is("::")))
            j -= 2;
        if (j == 0 || !tokens[j - 1].is(":"))
            continue;
        bool in_for = false;
        for (size_t k = j - 1; k-- > 0 && j - 1 - k < 40;) {
            const Token &b = tokens[k];
            if (b.is(";") || b.is("{") || b.is("}") || b.is("?") ||
                b.is("="))
                break;
            if (b.ident("for")) {
                in_for = true;
                break;
            }
        }
        if (in_for)
            report(t, tokens[i].line, "ranged-for");
    }
}

// ---------------------------------------------------------------
// metric-name / metric-handle
// ---------------------------------------------------------------

bool
validMetricSegment(const std::string &seg)
{
    if (seg.empty())
        return false;
    for (char c : seg) {
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) ||
              c == '_' || c == '#'))
            return false;
    }
    return true;
}

bool
validMetricPath(const std::string &text)
{
    if (text.empty())
        return true; // empty literal: not a path fragment
    size_t start = 0;
    bool first = true;
    while (start <= text.size()) {
        size_t dot = text.find('.', start);
        bool last = dot == std::string::npos;
        std::string seg = text.substr(
            start, last ? std::string::npos : dot - start);
        // Literals are concatenated around prefix variables, so a
        // leading '.' (suffix literal) or trailing '.' (prefix
        // literal) leaves an empty edge segment — fine.
        if (!((first || last) && seg.empty()) &&
            !validMetricSegment(seg))
            return false;
        first = false;
        if (last)
            break;
        start = dot + 1;
    }
    return true;
}

void
checkMetricNames(const Ctx &ctx)
{
    static const std::set<std::string> kCalls = {
        "counter", "sampler", "histogram", "timeWeighted", "gauge",
        "uniquePrefix",
    };
    const auto &tokens = ctx.tokens;
    std::set<int> call_lines;
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind == Tok::Ident &&
            kCalls.count(tokens[i].text) &&
            (tokens[i - 1].is(".") || tokens[i - 1].is("->")) &&
            tokens[i + 1].is("(") &&
            !ctx.allowed("metric-name", tokens[i].line)) {
            call_lines.insert(tokens[i].line);
        }
    }
    if (call_lines.empty())
        return;
    // Literals on the call line or the two continuation lines
    // (registration statements wrap in this codebase).
    for (const Literal &lit : ctx.stripped.literals) {
        bool near_call = false;
        for (int l : {lit.line, lit.line - 1, lit.line - 2}) {
            if (call_lines.count(l)) {
                near_call = true;
                break;
            }
        }
        if (near_call && !validMetricPath(lit.text)) {
            ctx.report(lit.line, "metric-name",
                       "metric path literal \"" + lit.text +
                           "\" violates the DESIGN.md §6c grammar "
                           "(lowercase [a-z0-9_#] segments joined "
                           "with '.')");
        }
    }
}

/**
 * Flags the lookup-then-record idiom: a registry/string lookup call
 * chained directly into a recording method, e.g.
 * `metrics().counter("x").increment()`. That re-pays the string-map
 * lookup on every event; per-I/O code must resolve a
 * CounterHandle/SamplerHandle once at registration and record
 * through it (sim/metrics.hh). Registration alone — assigning the
 * returned handle — is fine and not matched.
 */
void
checkMetricHandle(const Ctx &ctx)
{
    static const std::set<std::string> kLookups = {
        "counter",       "sampler",
        "histogram",     "timeWeighted",
        "findCounter",   "findSampler",
        "findHistogram", "findTimeWeighted",
    };
    static const std::set<std::string> kRecords = {
        "increment",
        "add",
        "set",
        "adjust",
    };
    const auto &tokens = ctx.tokens;
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident ||
            !kLookups.count(tokens[i].text))
            continue;
        // Member call only: `x.counter(` / `x->counter(`.
        if (!(tokens[i - 1].is(".") || tokens[i - 1].is("->")))
            continue;
        if (!tokens[i + 1].is("("))
            continue;
        size_t close = matchParen(tokens, i + 1);
        if (close == std::string::npos ||
            close + 2 >= tokens.size())
            continue;
        if (!tokens[close + 1].is("."))
            continue;
        const Token &member = tokens[close + 2];
        if (member.kind != Tok::Ident ||
            !kRecords.count(member.text))
            continue;
        ctx.report(
            tokens[i].line, "metric-handle",
            "metric looked up and recorded in one expression (`." +
                tokens[i].text + "(...)." + member.text +
                "(...)`): the string lookup runs per event; "
                "resolve a handle at registration (sim/metrics.hh) "
                "or annotate simlint:allow(metric-handle: "
                "<reason>)");
    }
}

// ---------------------------------------------------------------
// final-band-key
// ---------------------------------------------------------------

/**
 * Pointers and addresses must never become arbitration or sort
 * keys: address order is ASLR-dependent, the exact §8.3 bug class
 * the tie-shuffle diff kept catching dynamically (pointer-ordered
 * buffer reuse, final-band comparators on buffer addresses). Two
 * shapes are flagged: pointer-to-integer casts (`uintptr_t` /
 * `intptr_t`), and relational compares whose both operands are
 * pointer-typed names from the symbol table.
 */
void
checkFinalBandKey(const Ctx &ctx)
{
    const auto &tokens = ctx.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind == Tok::Ident &&
            (tokens[i].text == "uintptr_t" ||
             tokens[i].text == "intptr_t")) {
            ctx.report(tokens[i].line, "final-band-key",
                       "`" + tokens[i].text +
                           "` turns an address into an integer "
                           "key: ASLR reshuffles it run-to-run; "
                           "arbitrate by content (§8.3) or "
                           "annotate simlint:allow(final-band-key: "
                           "<reason>)");
        }
    }

    const auto &ptrs = ctx.symbols.pointer_names;
    if (ptrs.empty())
        return;
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (!(tokens[i].is("<") || tokens[i].is(">")))
            continue;
        // Left operand: the identifier just before (a member name
        // after `->`/`.` counts as the operand).
        if (tokens[i - 1].kind != Tok::Ident)
            continue;
        const std::string &left = tokens[i - 1].text;
        // Right operand: `b` or `b->member` / `b.member`.
        if (tokens[i + 1].kind != Tok::Ident)
            continue;
        std::string right = tokens[i + 1].text;
        if (i + 3 < tokens.size() &&
            (tokens[i + 2].is("->") || tokens[i + 2].is(".")) &&
            tokens[i + 3].kind == Tok::Ident)
            right = tokens[i + 3].text;
        if (!ptrs.count(left) || !ptrs.count(right))
            continue;
        ctx.report(tokens[i].line, "final-band-key",
                   "pointer values ordered by address (`" + left +
                       " " + tokens[i].text + " " + right +
                       "`): ASLR-dependent; arbitration and sort "
                       "keys must be content, never addresses "
                       "(§8.3), or annotate "
                       "simlint:allow(final-band-key: <reason>)");
    }
}

// ---------------------------------------------------------------
// final-band-direct
// ---------------------------------------------------------------

/**
 * One arbitration point per tick (DESIGN.md §8.3): model code under
 * src/ requests a final-band decision by marking its
 * sim::TickArbiter dirty, never by scheduling a final-band event of
 * its own. Per-component final events fire FIFO, an arrival order
 * the tie-shuffle never permutes, and cost one event each. Only the
 * sim core (finalBand()) may call scheduleFinal.
 */
void
checkFinalBandDirect(const Ctx &ctx)
{
    if (!pathContains(ctx.path, "src/") ||
        pathContains(ctx.path, "src/sim/"))
        return;
    const auto &tokens = ctx.tokens;
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        // A call goes through an object (`q.` / `q->`); a bare
        // `scheduleFinal(` is a declaration.
        if (!tokens[i].ident("scheduleFinal") ||
            !tokens[i + 1].is("(") ||
            !(tokens[i - 1].is(".") || tokens[i - 1].is("->")))
            continue;
        ctx.report(tokens[i].line, "final-band-direct",
                   "`scheduleFinal(` outside src/sim/: mark the "
                   "component's sim::TickArbiter dirty instead, so "
                   "the tick's one dispatch decides in registration "
                   "order, or annotate "
                   "simlint:allow(final-band-direct: <reason>)");
    }
}

// ---------------------------------------------------------------
// ref-capture-escape
// ---------------------------------------------------------------

/**
 * A by-reference lambda capture handed to the event queue or a
 * coroutine spawn outlives its frame: the callback fires ticks
 * later, after the locals it references are gone. Tests are exempt
 * (they drain the queue synchronously inside the capturing frame).
 */
void
checkRefCaptureEscape(const Ctx &ctx)
{
    if (pathContains(ctx.path, "tests/"))
        return;
    static const std::set<std::string> kSinks = {
        "schedule",          "scheduleAt", "scheduleFinal",
        "scheduleCancelable", "spawn",     "EventFn",
    };
    const auto &tokens = ctx.tokens;

    // Reports any top-level by-ref capture in the list opening at
    // @p open ("[&]", "[&x" or "[this, &x").
    auto checkCaptureList = [&](size_t open,
                                const std::string &sink) {
        int depth = 0;
        for (size_t i = open; i < tokens.size(); ++i) {
            if (tokens[i].is("["))
                ++depth;
            else if (tokens[i].is("]") && --depth == 0)
                return;
            if (depth == 1 && tokens[i].is("&") &&
                (tokens[i - 1].is("[") || tokens[i - 1].is(","))) {
                ctx.report(
                    tokens[i].line, "ref-capture-escape",
                    "by-reference lambda capture handed to `" +
                        sink +
                        "`: the callback can outlive the "
                        "enclosing frame; capture by value (or "
                        "[this]) or annotate "
                        "simlint:allow(ref-capture-escape: "
                        "<reason>)");
                return;
            }
        }
    };

    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident ||
            !kSinks.count(tokens[i].text))
            continue;
        // Call form: sink( ... [&] ... ) — every lambda that is a
        // *direct* argument (after the sink's own '(' or a
        // top-level ','). Lambdas nested inside other calls within
        // the argument list belong to those calls, not the sink.
        if (tokens[i + 1].is("(")) {
            size_t close = matchParen(tokens, i + 1);
            if (close == std::string::npos)
                continue;
            int depth = 1;
            for (size_t k = i + 2; k < close; ++k) {
                if (tokens[k].is("("))
                    ++depth;
                else if (tokens[k].is(")"))
                    --depth;
                else if (tokens[k].is("[") && depth == 1 &&
                         (tokens[k - 1].is("(") ||
                          tokens[k - 1].is(",")))
                    checkCaptureList(k, tokens[i].text);
            }
        }
        // Binding form: `EventFn fn = [&] {...}` (also `sink x{[&]`).
        else if (tokens[i + 1].kind == Tok::Ident &&
                 i + 3 < tokens.size() && tokens[i + 2].is("=") &&
                 tokens[i + 3].is("[")) {
            checkCaptureList(i + 3, tokens[i].text);
        }
    }
}

// ---------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------

/**
 * Model code (src/) must derive every random stream from
 * Simulation::forkRng(), the registered fork point — a literal seed
 * buried in a component decouples its stream from the run seed and
 * correlates it with every other copy of the literal. Bench/test
 * harness roots are exempt: there the explicit seed *is* the
 * experiment parameter.
 */
void
checkRngDiscipline(const Ctx &ctx)
{
    for (const char *exempt :
         {"tests/", "bench/", "examples/", "sim/random.",
          "sim/simulation."}) {
        if (pathContains(ctx.path, exempt))
            return;
    }
    const auto &tokens = ctx.tokens;
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (!tokens[i].ident("Rng"))
            continue;
        size_t arg = std::string::npos;
        if (tokens[i + 1].is("(") || tokens[i + 1].is("{")) {
            arg = i + 2; // temporary: Rng(123)
        } else if (tokens[i + 1].kind == Tok::Ident &&
                   i + 3 < tokens.size() &&
                   (tokens[i + 2].is("(") || tokens[i + 2].is("{"))) {
            arg = i + 3; // named: Rng rng(123)
        }
        if (arg == std::string::npos || arg >= tokens.size() ||
            tokens[arg].kind != Tok::Number)
            continue;
        ctx.report(tokens[i].line, "rng-discipline",
                   "sim::Rng seeded with a literal in model code: "
                   "streams must derive from Simulation::forkRng() "
                   "(the registered fork point) so one run seed "
                   "governs every stream, or annotate "
                   "simlint:allow(rng-discipline: <reason>)");
    }
}

// ---------------------------------------------------------------
// banned-header
// ---------------------------------------------------------------

void
checkBannedHeaders(const Ctx &ctx,
                   const std::vector<IncludeDirective> &includes)
{
    static const std::set<std::string> kBanned = {
        "chrono",     "thread",      "mutex",
        "shared_mutex", "condition_variable", "random",
        "future",     "semaphore",   "barrier",
        "latch",      "stop_token",  "ctime",
        "time.h",     "sys/time.h",  "pthread.h",
    };
    for (const IncludeDirective &inc : includes) {
        if (!inc.system || !kBanned.count(inc.target))
            continue;
        ctx.report(inc.line, "banned-header",
                   "banned header <" + inc.target +
                       ">: wall-clock, threading and raw-random "
                       "facilities break the determinism contract "
                       "(DESIGN.md §8.1); drop it or annotate "
                       "simlint:allow(banned-header: <reason>)");
    }
}

// ---------------------------------------------------------------
// metric-use collection (pass 1, consumed cross-TU)
// ---------------------------------------------------------------

std::vector<MetricUse>
collectMetricUses(const std::vector<Token> &tokens)
{
    static const std::set<std::string> kRegs = {
        "counter", "sampler", "histogram", "timeWeighted", "gauge",
    };
    static const std::set<std::string> kFinds = {
        "findCounter", "findSampler", "findHistogram",
        "findTimeWeighted",
    };
    std::vector<MetricUse> out;
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Tok::Ident)
            continue;
        if (!(tokens[i - 1].is(".") || tokens[i - 1].is("->")))
            continue;
        const std::string &call = tokens[i].text;
        if (!tokens[i + 1].is("(") || i + 3 >= tokens.size())
            continue;

        if (call == "uniquePrefix") {
            // The base is extended at runtime ("client.kdsa" ->
            // "client.kdsa0.ios"), so the base itself is the
            // registered prefix.
            if (tokens[i + 2].kind == Tok::String &&
                tokens[i + 3].is(")")) {
                out.push_back({MetricUse::Kind::RegisterPrefix,
                               tokens[i + 2].text, tokens[i].line,
                               call});
            }
            continue;
        }
        if (kFinds.count(call) ||
            (call == "contains" &&
             tokens[i + 2].kind == Tok::String &&
             tokens[i + 2].text.find('.') != std::string::npos)) {
            if (tokens[i + 2].kind == Tok::String &&
                tokens[i + 3].is(")")) {
                out.push_back({MetricUse::Kind::Lookup,
                               tokens[i + 2].text, tokens[i].line,
                               call});
            }
            continue;
        }
        if (!kRegs.count(call))
            continue;

        // First argument: tokens up to the top-level ',' or ')'.
        size_t end = i + 2;
        int depth = 1;
        bool single_literal =
            tokens[i + 2].kind == Tok::String &&
            (tokens[i + 3].is(")") || tokens[i + 3].is(","));
        std::vector<const Token *> literals;
        for (; end < tokens.size(); ++end) {
            const Token &t = tokens[end];
            if (t.is("("))
                ++depth;
            else if (t.is(")") && --depth == 0)
                break;
            else if (t.is(",") && depth == 1)
                break;
            else if (t.kind == Tok::String)
                literals.push_back(&t);
        }
        if (single_literal) {
            out.push_back({MetricUse::Kind::RegisterPath,
                           tokens[i + 2].text, tokens[i].line,
                           call});
            continue;
        }
        for (const Token *lit : literals) {
            if (lit->text.empty())
                continue;
            MetricUse::Kind kind = MetricUse::Kind::RegisterInfix;
            if (lit->text.front() == '.')
                kind = MetricUse::Kind::RegisterSuffix;
            else if (lit->text.back() == '.')
                kind = MetricUse::Kind::RegisterPrefix;
            out.push_back({kind, lit->text, lit->line, call});
        }
    }
    return out;
}

} // namespace

TuAnalysis
analyzeTu(const std::string &path, const std::string &content)
{
    TuAnalysis tu;
    tu.path = path;
    tu.stripped = strip(path, content);
    tu.tokens = tokenize(tu.stripped);
    tu.symbols = buildSymbols(tu.tokens);
    tu.includes = scanIncludes(content);
    tu.metric_uses = collectMetricUses(tu.tokens);
    return tu;
}

void
runTuRules(TuAnalysis &tu,
           const std::map<std::string, ContainerKind>
               *global_aliases,
           const std::vector<TrackedVar> *extra_tracked)
{
    // Rebuild the symbol table with the repo-wide aliases so
    // alias-typed members declared via another TU's alias resolve.
    SymbolTable symbols = global_aliases
                              ? buildSymbols(tu.tokens,
                                             global_aliases)
                              : tu.symbols;

    std::vector<TrackedVar> tracked = symbols.tracked;
    if (extra_tracked)
        tracked.insert(tracked.end(), extra_tracked->begin(),
                       extra_tracked->end());

    Ctx ctx{tu.path, tu.stripped, tu.tokens, symbols, tu.findings};
    for (const Finding &f : tu.stripped.annotation_findings)
        tu.findings.push_back(f);
    checkWallClock(ctx);
    checkRawRandom(ctx);
    checkIteration(ctx, tracked);
    checkMetricNames(ctx);
    checkMetricHandle(ctx);
    checkFinalBandKey(ctx);
    checkFinalBandDirect(ctx);
    checkRefCaptureEscape(ctx);
    checkRngDiscipline(ctx);
    checkBannedHeaders(ctx, tu.includes);
}

} // namespace v3sim::simlint
