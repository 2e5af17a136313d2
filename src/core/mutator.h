/**
 * @file
 * The Mutator: the capability-checked programming interface that
 * workload code runs against — CHERI dereference semantics (tag,
 * permission, and bounds checks) over the simulated memory system,
 * plus malloc/free through the temporally safe heap.
 *
 * Offsets are relative to the capability's *address* (cursor), which
 * equals its base for freshly allocated pointers.
 *
 * Bulk operations run in 256-byte chunks, one MMU call each, and each
 * chunk's charge is a possible yield point, so the chunk size is part
 * of the simulated schedule. readBytes models a read whose bytes the
 * workload never looks at: it translates and charges every chunk but
 * copies nothing.
 */

#ifndef CREV_CORE_MUTATOR_H_
#define CREV_CORE_MUTATOR_H_

#include <cstdint>

#include "base/rng.h"
#include "base/types.h"
#include "cap/capability.h"
#include "sim/scheduler.h"

namespace crev::core {

class Machine;

/** Per-thread workload context. */
class Mutator
{
  public:
    Mutator(Machine &m, std::uint64_t seed);

    /** Allocate through the configured temporal-safety shim. */
    cap::Capability malloc(std::size_t size);
    /** Free (quarantine) through the shim. */
    void free(const cap::Capability &c);

    /** Capability-checked 64-bit load/store. */
    std::uint64_t load64(const cap::Capability &c, Addr off);
    void store64(const cap::Capability &c, Addr off, std::uint64_t v);

    /** Capability-checked capability load/store (16-byte aligned). */
    cap::Capability loadCap(const cap::Capability &c, Addr off);
    void storeCap(const cap::Capability &c, Addr off,
                  const cap::Capability &v);

    /** Bulk data fill (charged per cache line). */
    void fill(const cap::Capability &c, Addr off, std::size_t len,
              std::uint8_t byte);
    /** Bulk data read, charged per cache line; the bytes are not
     *  copied anywhere. */
    void readBytes(const cap::Capability &c, Addr off,
                   std::size_t len);

    /** Pure CPU work. */
    void compute(Cycles cycles);

    /** Virtual time and sleep. */
    Cycles now() const;
    void sleepUntil(Cycles t);
    void sleep(Cycles dt);

    /** Kernel hoard round trip (aio-style pointer retention). */
    std::size_t hoardPut(const cap::Capability &c);
    cap::Capability hoardTake(std::size_t slot);

    /** Deterministic per-thread RNG. */
    Rng &rng() { return rng_; }

    sim::SimThread &thread();
    Machine &machine() { return m_; }

  private:
    /** Validate a dereference; throws vm::CapabilityFault. */
    Addr check(const cap::Capability &c, Addr off, std::size_t len,
               std::uint32_t need_perms);

    Machine &m_;
    Rng rng_;
    sim::SimThread *thread_ = nullptr;

    friend class Machine;
};

} // namespace crev::core

#endif // CREV_CORE_MUTATOR_H_
