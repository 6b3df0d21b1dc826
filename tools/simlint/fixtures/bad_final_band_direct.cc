// Fixture: a component under src/ scheduling its own final-band
// events. Linted as src/storage/ code, both calls are findings; the
// declaration and the comment mention are not calls.
#include <functional>

using EventFn = std::function<void()>;

struct Queue
{
    void scheduleFinal(EventFn f);
};

struct Gate
{
    Queue &q;
    bool pass_scheduled = false;

    void pass() { pass_scheduled = false; }

    void
    kick()
    {
        // a scheduleFinal( in a comment is not a call
        q.scheduleFinal([this] { pass(); });
        q.scheduleFinal(EventFn{});
    }
};
