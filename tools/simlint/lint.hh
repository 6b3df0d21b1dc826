/**
 * @file
 * simlint v2: the project's determinism-contract static analyzer.
 *
 * A dependency-free multi-pass analyzer (no libclang) that enforces
 * the invariants every BENCH_*.json trajectory relies on — see
 * DESIGN.md §8 "Determinism contract". It is built from three
 * layers:
 *
 *  1. a real lexer (lexer.hh): comments/literals are stripped with
 *     line fidelity, then the code is tokenized into an
 *     identifier/number/string/punctuation stream;
 *  2. a lightweight per-TU symbol table (symtab.hh): container
 *     declarations, `using` aliases and pointer-typed names, with
 *     companion-header (.hh next to .cc) declarations merged in;
 *  3. per-TU rules plus a second, cross-TU pass over the whole repo
 *     (lintRepo): a repo-wide alias table (so an alias defined in
 *     one header and used in another TU still resolves), an include
 *     graph for the banned-header rule, and a metric index that
 *     cross-checks every registered dotted path against every
 *     by-name lookup.
 *
 * Rule families:
 *
 *  - wall-clock         no real-time sources (`system_clock`,
 *                       `time(`, `gettimeofday`, ...); simulated
 *                       time comes from sim::EventQueue only.
 *  - raw-random         no nondeterministic or unseeded randomness
 *                       (`rand(`, `std::random_device`,
 *                       `std::mt19937`); randomness flows through
 *                       sim::Rng forks.
 *  - unordered-iter     no iteration over `std::unordered_map/set`:
 *                       hash order is unspecified. Point lookups are
 *                       fine.
 *  - ptr-map-iter       no iteration over pointer-keyed ordered
 *                       `std::map/set`: address order changes
 *                       run-to-run under ASLR.
 *  - metric-name        registration literals follow the DESIGN.md
 *                       §6c dotted-path grammar.
 *  - metric-handle      no string-keyed metric lookup chained into a
 *                       recording call on a hot path; resolve a
 *                       handle at registration.
 *  - final-band-key     no pointers or addresses as arbitration /
 *                       sort keys (pointer relational compares,
 *                       `uintptr_t` casts): the §8.3 final band must
 *                       order contenders by content, never address.
 *  - final-band-direct  no `scheduleFinal(` call under src/ outside
 *                       src/sim/: components mark their
 *                       sim::TickArbiter dirty, so each tick has one
 *                       arbitration point.
 *  - ref-capture-escape no `[&]`/by-reference lambda captures handed
 *                       to `schedule*`/`spawn`/`EventFn`: the
 *                       callback outlives the frame.
 *  - rng-discipline     no hard-coded RNG seeds in model code
 *                       (src/): every stream derives from
 *                       Simulation::forkRng(), the registered fork
 *                       point.
 *  - banned-header      include-graph rule: `<chrono>`, `<thread>`,
 *                       `<mutex>`, `<random>` & co. are rejected
 *                       outside explicitly annotated files.
 *  - metric-index       cross-TU: duplicate full-path registrations,
 *                       and by-name lookups of metrics never
 *                       registered anywhere in the scanned tree (a
 *                       typo reads as a silent zero).
 *  - annotation         malformed / reason-less suppression.
 *
 * Suppression grammar (reason is mandatory):
 *   // simlint:allow(<rule>: <reason>)        same or next line
 *   // simlint:allow-file(<rule>: <reason>)   whole file
 * Every accepted annotation is also recorded in the suppression
 * inventory (RepoReport::suppressions) so the repo-wide allow count
 * is a ratcheted number, not folklore (see checkRatchet).
 */

#ifndef V3SIM_TOOLS_SIMLINT_LINT_HH
#define V3SIM_TOOLS_SIMLINT_LINT_HH

#include <string>
#include <vector>

namespace v3sim::simlint
{

/** One rule violation at a source location. */
struct Finding
{
    std::string file;
    int line = 0;          ///< 1-based
    std::string rule;      ///< e.g. "wall-clock"
    std::string message;
};

/** One accepted simlint:allow / allow-file annotation. */
struct Suppression
{
    std::string file;
    int line = 0;          ///< 1-based annotation line
    std::string rule;      ///< rule being suppressed
    std::string reason;    ///< mandatory justification text
    bool file_scope = false;
};

/** Result of a whole-repo lint (lintRepo). */
struct RepoReport
{
    std::vector<Finding> findings;        ///< sorted by (file, line)
    std::vector<Suppression> suppressions;///< the allow inventory
    size_t files = 0;                     ///< inputs analyzed
};

/** Lints one translation unit given as text. Per-TU rules only —
 *  cross-TU rules (metric-index, alias routing, include-graph
 *  attribution) need lintRepo. @p path is used for reporting and
 *  for path-based rule exemptions. */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** Reads and lints a file (per-TU rules plus companion-header
 *  declaration tracking). A read failure is reported as a finding
 *  with rule "io". */
std::vector<Finding> lintFile(const std::string &path);

/**
 * The full multi-pass analysis over a set of files: pass 1 builds
 * the repo-wide symbol/alias/metric/include context, pass 2 runs the
 * per-TU rules with that context plus the cross-TU rules. Findings
 * are sorted by (file, line, rule, message).
 */
RepoReport lintRepo(const std::vector<std::string> &paths);

/** Expands directories (recursively) into lintable files
 *  (.cc/.hh/.cpp/.hpp/.h), skipping directories named "fixtures",
 *  "build" or ".git". Explicit file arguments pass through. Unknown
 *  paths are returned in @p missing. Output is sorted. */
std::vector<std::string>
collectInputs(const std::vector<std::string> &roots,
              std::vector<std::string> *missing = nullptr);

/** Renders a finding as "file:line: [rule] message". */
std::string formatFinding(const Finding &finding);

/** Renders the whole report as a schema-1 JSON object: findings,
 *  the suppression inventory and per-rule suppression counts. */
std::string reportToJson(const RepoReport &report);

/** Per-rule suppression counts in the ratchet-baseline format:
 *  "total N" then "rule N" lines, sorted by rule. */
std::string suppressionSummary(const RepoReport &report);

/** Result of comparing a report against a suppression baseline. */
struct RatchetResult
{
    bool ok = true;        ///< false when any count exceeds baseline
    std::string detail;    ///< human-readable explanation
};

/**
 * The suppression ratchet: compares the report's per-rule allow
 * counts against a checked-in baseline (the suppressionSummary
 * format; '#' comments allowed). Any rule whose live count exceeds
 * its baseline fails; counts below baseline pass with a note that
 * the baseline can be tightened.
 */
RatchetResult checkRatchet(const RepoReport &report,
                           const std::string &baseline_text);

} // namespace v3sim::simlint

#endif // V3SIM_TOOLS_SIMLINT_LINT_HH
