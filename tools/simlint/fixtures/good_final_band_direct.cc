// Fixture: the same component requesting its decision through a
// tick arbiter — nothing here may fire, under src/ or anywhere.
struct TickArbiter
{
    bool dirty = false;
    void markDirty() { dirty = true; }
};

struct Gate : TickArbiter
{
    int passes = 0;

    void pass() { ++passes; }
    void kick() { markDirty(); }
};
