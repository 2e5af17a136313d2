#include "sim/sync.h"

#include <algorithm>

#include "base/logging.h"
#include "check/race_checker.h"

namespace crev::sim {

void
SimMutex::lock(SimThread &self)
{
    while (owner_ != nullptr) {
        CREV_ASSERT(owner_ != &self); // no recursive locking
        ++contended_;
        waiters_.push_back(&self);
        self.scheduler().block(self);
        // Re-contend on wake; remove stale queue entry if still there.
        auto it = std::find(waiters_.begin(), waiters_.end(), &self);
        if (it != waiters_.end())
            waiters_.erase(it);
    }
    owner_ = &self;
    if (auto *c = self.scheduler().checker())
        c->onMutexAcquire(self.id(), this, name_);
}

bool
SimMutex::tryLock(SimThread &self)
{
    if (owner_ != nullptr)
        return false;
    owner_ = &self;
    if (auto *c = self.scheduler().checker())
        c->onMutexAcquire(self.id(), this, name_);
    return true;
}

void
SimMutex::unlock(SimThread &self)
{
    CREV_ASSERT(owner_ == &self);
    if (auto *c = self.scheduler().checker())
        c->onMutexRelease(self.id(), this);
    owner_ = nullptr;
    if (!waiters_.empty()) {
        SimThread *next = waiters_.front();
        waiters_.erase(waiters_.begin());
        self.scheduler().wake(*next, self.now());
    }
}

void
SimEvent::wait(SimThread &self)
{
    waiters_.push_back(&self);
    self.scheduler().block(self);
    auto it = std::find(waiters_.begin(), waiters_.end(), &self);
    if (it != waiters_.end())
        waiters_.erase(it);
}

void
SimEvent::notifyAll(SimThread &self)
{
    // One batch through the scheduler, applied in wait order.
    std::vector<SimThread *> to_wake;
    to_wake.swap(waiters_);
    if (!to_wake.empty())
        self.scheduler().wakeMany(to_wake.data(), to_wake.size(),
                                  self.now());
}

} // namespace crev::sim
