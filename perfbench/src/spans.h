/**
 * @file
 * Host-time spans around every call the benchmark's loops make into
 * a simulator layer (alloc, vm, mem, sim).
 *
 * Simulated threads run one at a time on the driving host thread, but
 * a call may hand the token to another simulated thread before it
 * returns, so spans of different threads interleave rather than nest.
 * Self time is therefore attributed interval by interval: the host
 * time between two consecutive span events belongs to the open call of
 * the simulated thread that emitted both events; an interval bounded
 * by events of two different threads contains a handoff, and an
 * interval with no open call is load-generator code. Both go to
 * `background`. The intervals partition the cell's Machine::run, so
 * the call self times plus background sum to the run time exactly.
 *
 * High-volume calls are aggregated per (layer, call). Low-volume spans
 * (queue handoffs, which carry the transaction id shared by the
 * client's and the server's spans of one transaction) are kept as full
 * records and written out when the run ends.
 */

#ifndef CREV_PERFBENCH_SPANS_H_
#define CREV_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Every call the loops make, grouped by the src/ module it enters. */
enum class Call : std::uint8_t {
    kMalloc,    //!< alloc: Mutator::malloc
    kFree,      //!< alloc: Mutator::free
    kLoadCap,   //!< vm: Mutator::loadCap
    kStoreCap,  //!< vm: Mutator::storeCap
    kLoad64,    //!< mem: Mutator::load64
    kStore64,   //!< mem: Mutator::store64
    kReadBytes, //!< mem: Mutator::readBytes
    kFill,      //!< mem: Mutator::fill
    kCompute,   //!< sim: Mutator::compute
    kSleep,     //!< sim: Mutator::sleep / sleepUntil
    kPush,      //!< sim: SimQueue::push
    kPop,       //!< sim: SimQueue::pop
};
constexpr std::size_t kNumCalls = 12;

/** "layer.call" name of @p c. */
const char *callName(Call c);

/** Aggregate of one call kind within one cell. */
struct CallAgg
{
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
};

/** One full span record (low-volume calls only). */
struct SpanRecord
{
    std::int64_t start_ns = 0; //!< relative to the cell's run start
    std::int64_t end_ns = 0;
    std::uint32_t txn = 0;    //!< transaction / message id
    std::uint16_t thread = 0; //!< simulated thread id
    Call call = Call::kPush;
};

/** Per-cell span accounting for one traced cell run. */
class Recorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** @p keep_records: keep full records of the low-volume spans. */
    explicit Recorder(bool keep_records = false)
        : keep_records_(keep_records)
    {
    }

    /** Start accounting at the start of Machine::run. */
    void beginRun();
    /** Close accounting at the end of Machine::run. */
    void endRun();

    /** A call of @p thread enters a layer. */
    void open(unsigned thread, Call c);
    /** The open call of @p thread returns; @p txn tags kept records. */
    void close(unsigned thread, Call c, std::uint32_t txn);

    const std::array<CallAgg, kNumCalls> &aggregates() const
    {
        return agg_;
    }
    std::int64_t backgroundNs() const { return background_ns_; }
    std::int64_t runNs() const { return run_ns_; }
    /** Calls closed by a thread other than the one that opened them,
     *  or opened twice: any nonzero value breaks the accounting. */
    std::uint64_t protocolErrors() const { return errors_; }
    const std::vector<SpanRecord> &records() const { return records_; }

  private:
    static constexpr std::uint8_t kNone = 0xff;

    std::int64_t tick();

    bool keep_records_;
    Clock::time_point start_{};
    std::int64_t last_ns_ = 0;
    int last_thread_ = -1;
    std::int64_t background_ns_ = 0;
    std::int64_t run_ns_ = 0;
    std::uint64_t errors_ = 0;
    std::array<CallAgg, kNumCalls> agg_{};
    /** Open call per simulated thread id, kNone when idle. */
    std::vector<std::uint8_t> open_;
    std::vector<std::int64_t> open_at_;
    std::vector<SpanRecord> records_;
};

/** RAII span; a null recorder makes it free of any host timing. */
class Span
{
  public:
    Span(Recorder *rec, unsigned thread, Call c)
        : rec_(rec), thread_(thread), call_(c)
    {
        if (rec_ != nullptr)
            rec_->open(thread_, call_);
    }
    ~Span()
    {
        if (rec_ != nullptr)
            rec_->close(thread_, call_, txn_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setTxn(std::uint32_t txn) { txn_ = txn; }

  private:
    Recorder *rec_;
    unsigned thread_;
    Call call_;
    std::uint32_t txn_ = 0;
};

/** Append @p rec's kept span records for @p cell as CSV lines. */
void writeRecords(std::FILE *f, const std::string &cell,
                  const Recorder &rec);

} // namespace perfbench

#endif // CREV_PERFBENCH_SPANS_H_
