/**
 * @file
 * Synchronisation primitives for simulated threads.
 *
 * Because exactly one simulated thread executes at a time and wake-ups
 * are delivered through the scheduler, these primitives are free of
 * lost-wakeup races by construction: a waiter's predicate check and its
 * block() cannot be interleaved with a waker.
 */

#ifndef CREV_SIM_SYNC_H_
#define CREV_SIM_SYNC_H_

#include <deque>
#include <vector>

#include "base/logging.h"
#include "base/types.h"
#include "sim/scheduler.h"

namespace crev::sim {

/**
 * A mutex for simulated threads (the pmap lock, allocator locks).
 * Holders may yield while holding it; waiters block in FIFO order.
 */
class SimMutex
{
  public:
    /** @p name labels the lock in race-checker reports. */
    explicit SimMutex(const char *name = "?") : name_(name) {}

    /** Acquire; blocks the calling thread while contended. */
    void lock(SimThread &self);

    /** Try to acquire without blocking. */
    bool tryLock(SimThread &self);

    /** Release and wake the first waiter (at the caller's now()). */
    void unlock(SimThread &self);

    bool heldBy(const SimThread &t) const { return owner_ == &t; }
    bool held() const { return owner_ != nullptr; }

    /** Current holder (null when free); for debug diagnostics. */
    const SimThread *holder() const { return owner_; }

    /** Hard assertion that @p t holds this mutex (never compiled out). */
    void assertHeld(const SimThread &t) const { CREV_ASSERT(owner_ == &t); }

    /** Times lock() found the mutex held (contention metric). */
    std::uint64_t contended() const { return contended_; }

  private:
    const char *name_;
    SimThread *owner_ = nullptr;
    std::vector<SimThread *> waiters_;
    std::uint64_t contended_ = 0;
};

/**
 * A condition-style event: threads wait until notified. Waiters must
 * re-check their predicate (and Scheduler::shuttingDown(), if they are
 * daemons) upon return.
 */
class SimEvent
{
  public:
    /** Block until the next notify (or shutdown wake). */
    void wait(SimThread &self);

    /** Wake all current waiters at the caller's now(). */
    void notifyAll(SimThread &self);

  private:
    std::vector<SimThread *> waiters_;
};

/**
 * An unbounded FIFO queue between simulated threads, used as the
 * request channel of the pgbench- and gRPC-style client/server
 * workloads. Each element carries the virtual time it was enqueued.
 */
template <typename T>
class SimQueue
{
  public:
    /** Enqueue @p v, waking one blocked consumer. */
    void
    push(SimThread &self, T v)
    {
        items_.push_back(Item{std::move(v), self.now()});
        event_.notifyAll(self);
    }

    /**
     * Dequeue, blocking while empty. Returns false (without a value)
     * if the scheduler began shutting down while waiting.
     */
    bool
    pop(SimThread &self, T &out, Cycles &enqueued_at)
    {
        while (items_.empty()) {
            if (self.scheduler().shuttingDown())
                return false;
            event_.wait(self);
        }
        out = std::move(items_.front().value);
        enqueued_at = items_.front().enqueued_at;
        items_.pop_front();
        return true;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

  private:
    struct Item
    {
        T value;
        Cycles enqueued_at;
    };

    std::deque<Item> items_;
    SimEvent event_;
};

} // namespace crev::sim

#endif // CREV_SIM_SYNC_H_
