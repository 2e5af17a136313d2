#include "spans.h"

namespace perfbench {

namespace {

bool
keptAsRecord(Call c)
{
    return c == Call::kPush || c == Call::kPop;
}

} // namespace

const char *
callName(Call c)
{
    switch (c) {
      case Call::kMalloc:
        return "alloc.malloc";
      case Call::kFree:
        return "alloc.free";
      case Call::kLoadCap:
        return "vm.load_cap";
      case Call::kStoreCap:
        return "vm.store_cap";
      case Call::kLoad64:
        return "mem.load64";
      case Call::kStore64:
        return "mem.store64";
      case Call::kReadBytes:
        return "mem.read_bytes";
      case Call::kFill:
        return "mem.fill";
      case Call::kCompute:
        return "sim.compute";
      case Call::kSleep:
        return "sim.sleep";
      case Call::kPush:
        return "sim.queue_push";
      case Call::kPop:
        return "sim.queue_pop";
    }
    return "?";
}

std::int64_t
Recorder::tick()
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start_)
            .count();
    const std::int64_t dt = now - last_ns_;
    last_ns_ = now;
    return dt;
}

void
Recorder::beginRun()
{
    start_ = Clock::now();
    last_ns_ = 0;
    last_thread_ = -1;
}

void
Recorder::endRun()
{
    // The tail after the last span event: thread exits, daemons
    // draining, scheduler teardown of the run loop.
    background_ns_ += tick();
    run_ns_ = last_ns_;
    for (const std::uint8_t c : open_)
        if (c != kNone)
            ++errors_;
}

void
Recorder::open(unsigned thread, Call c)
{
    if (thread >= open_.size()) {
        open_.resize(thread + 1, kNone);
        open_at_.resize(thread + 1, 0);
    }
    // Before an open the thread ran load-generator code, or took the
    // token over from another thread: background either way.
    background_ns_ += tick();
    if (open_[thread] != kNone)
        ++errors_;
    open_[thread] = static_cast<std::uint8_t>(c);
    open_at_[thread] = last_ns_;
    last_thread_ = static_cast<int>(thread);
}

void
Recorder::close(unsigned thread, Call c, std::uint32_t txn)
{
    const std::int64_t dt = tick();
    if (thread >= open_.size() ||
        open_[thread] != static_cast<std::uint8_t>(c)) {
        ++errors_;
        background_ns_ += dt;
        return;
    }
    if (last_thread_ == static_cast<int>(thread))
        agg_[open_[thread]].self_ns += dt;
    else
        background_ns_ += dt; // a handoff from another thread
    ++agg_[open_[thread]].calls;
    if (keep_records_ && keptAsRecord(c))
        records_.push_back(SpanRecord{open_at_[thread], last_ns_, txn,
                                      static_cast<std::uint16_t>(thread),
                                      c});
    open_[thread] = kNone;
    last_thread_ = static_cast<int>(thread);
}

void
writeRecords(std::FILE *f, const std::string &cell, const Recorder &rec)
{
    // Every kept record's parent is the cell's core.run span.
    std::fprintf(f, "%s,core.run,0,%lld,,0,\n", cell.c_str(),
                 static_cast<long long>(rec.runNs()));
    for (const SpanRecord &r : rec.records())
        std::fprintf(f, "%s,%s,%lld,%lld,core.run,%u,%u\n", cell.c_str(),
                     callName(r.call), static_cast<long long>(r.start_ns),
                     static_cast<long long>(r.end_ns), r.txn,
                     static_cast<unsigned>(r.thread));
}

} // namespace perfbench
