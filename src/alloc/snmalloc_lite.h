/**
 * @file
 * A size-classed slab allocator in the spirit of snmalloc, operating
 * entirely on simulated memory.
 *
 * Small objects come from per-size-class slabs carved out of 64 KiB
 * chunks inside 1 MiB arenas; large objects get page-granular,
 * representability-aligned carve-outs. Free lists are *in-band*:
 * each free object's first granule holds a capability to the next
 * free object, so allocator metadata traffic (and its interaction
 * with the load barrier — the allocator is just another userspace
 * capability user) is faithfully accounted.
 *
 * Size classes are chosen so every (base, size) pair the allocator
 * produces is exactly representable under cap/compression.h — the
 * discipline a real CHERI malloc must follow (paper §2.1).
 *
 * The returned capability's bounds cover exactly the size class, so a
 * correct client cannot touch neighbours (spatial safety); temporal
 * safety is layered on by QuarantineShim.
 *
 * Sharding (DESIGN.md §15): the allocator can be split into per-core
 * *shards*, each with its own free lists, slab cursors, arena, and
 * large-chunk cache — the shape of snmalloc's per-thread LocalAllocs.
 * Every chunk records its owning shard; an object must be returned to
 * its owner's free lists (QuarantineShim routes cross-core frees as
 * remote-dealloc messages). The chunk map, live set, and in-flight
 * set stay global: they model the shared address-space metadata every
 * allocator instance can see.
 */

#ifndef CREV_ALLOC_SNMALLOC_LITE_H_
#define CREV_ALLOC_SNMALLOC_LITE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_set>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "kern/kernel.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::alloc {

/** Small-object size classes (bytes); all exactly representable. */
constexpr std::array<std::size_t, 20> kSizeClasses = {
    16,   32,   48,   64,   96,   128,  192,  256,   384,   512,
    768,  1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384};

/** Largest small-object size. */
constexpr std::size_t kMaxSmall = kSizeClasses.back();

/** Allocator activity counters (global and per shard). */
struct AllocStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytes_allocated_total = 0;
    std::uint64_t bytes_freed_total = 0;
};

/** The slab allocator. */
class SnmallocLite
{
  public:
    SnmallocLite(kern::Kernel &kernel, vm::Mmu &mmu,
                 unsigned shards = 1);

    /** Number of per-core shards (1 = the single-heap reference). */
    unsigned
    shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * Allocate at least @p size bytes from @p shard's slabs; returns
     * a tagged capability bounded to the rounded size (the size
     * class, or page-rounded for large allocations).
     */
    cap::Capability alloc(sim::SimThread &t, std::size_t size,
                          unsigned shard = 0);

    /**
     * Return an object to its owner's free list immediately (no
     * quarantine; the baseline configuration, or the shim after
     * dequarantine). Detects double-free of a live pointer.
     */
    void dealloc(sim::SimThread &t, const cap::Capability &c);

    /** Dequarantine path: free by base address, onto the free lists
     *  of the shard that owns the containing chunk. */
    void deallocRaw(sim::SimThread &t, Addr base);

    /**
     * Remove @p base from the live set (quarantine entry point): the
     * object stops counting toward the live heap but is not yet
     * reusable. Throws std::logic_error on double free — including a
     * local free racing a still-in-flight remote free.
     */
    void retire(Addr base);

    /**
     * Mark @p base as having a remote free in flight: the object
     * stays live (the free has not reached its owner yet) but a
     * second free — local or remote — is a detected double free.
     */
    void markInFlight(Addr base);

    /** The owner drained the message: @p base may now be retired. */
    void clearInFlight(Addr base);

    /** The shard owning the chunk containing @p base. */
    unsigned
    ownerOf(Addr base) const
    {
        return chunkFor(base).owner;
    }

    /** Rounded allocation size for @p base (must be a live or
     *  quarantined object base). */
    std::size_t objectSize(Addr base) const;

    /** Whether @p base is a currently-live allocation. */
    bool isLive(Addr base) const { return liveBitTest(base); }

    /** Bytes in live allocations (rounded sizes). */
    std::size_t liveBytes() const { return live_bytes_; }

    /**
     * Address-space bytes an alloc(@p size) on @p shard would have to
     * mmap right now — 0 when it can be served from free lists, the
     * current slab, the current arena, or the large-chunk cache. The
     * quarantine shim probes this before allocating so address-space
     * exhaustion can degrade to emergency reclaim instead of
     * asserting.
     */
    std::size_t mmapDemandFor(std::size_t size,
                              unsigned shard = 0) const;

    const AllocStats &stats() const { return stats_; }

    /** Per-shard activity (RunMetrics "alloc.shardN.*"). */
    const AllocStats &
    shardStats(unsigned shard) const
    {
        return shards_[shard].stats;
    }

    /** The size class index holding @p size, or -1 if large. */
    static int sizeClassFor(std::size_t size);

  private:
    struct ClassState
    {
        Addr free_head = 0; //!< VA of first free object (0 = empty)
        cap::Capability free_head_cap; //!< allocator-retained pointer
        Addr bump = 0;      //!< next never-used object in current slab
        Addr slab_end = 0;
    };

    /** One per-core allocator: snmalloc's LocalAlloc shape. */
    struct Shard
    {
        std::array<ClassState, kSizeClasses.size()> classes{};
        std::map<std::size_t, std::vector<cap::Capability>>
            large_free; //!< cached free large chunks, by length
        cap::Capability arena_cap; //!< current arena root
        Addr arena_bump = 0;
        Addr arena_end = 0;
        AllocStats stats;
    };

    struct ChunkMeta
    {
        Addr base = 0;
        std::size_t length = 0;
        int size_class = -1; //!< -1 for large chunks
        unsigned owner = 0;  //!< shard whose free lists recycle it
        /** Allocator-retained capability spanning the chunk. */
        cap::Capability chunk_cap;
    };

    /** Carve a new chunk of @p bytes (page multiple) from @p shard's
     *  arena. */
    Addr carveChunk(sim::SimThread &t, Shard &sh, std::size_t bytes,
                    std::size_t align);

    const ChunkMeta &chunkFor(Addr va) const;

    /** Store a new chunk and index its pages. */
    void addChunk(const ChunkMeta &m);

    // --- live-set granule bitmap ---
    std::size_t liveBitIndex(Addr base) const;
    bool liveBitTest(Addr base) const;
    void liveBitSet(Addr base);
    /** Clear the bit; returns whether it was set. */
    bool liveBitClear(Addr base);

    kern::Kernel &kernel_;
    vm::Mmu &mmu_;
    std::vector<Shard> shards_; //!< sized once at construction
    /** Chunk storage; deque growth never moves elements, so
     *  chunk_by_page_'s pointers stay valid. */
    std::deque<ChunkMeta> chunks_;
    /** Bases with a remote free in flight (still live; a second free
     *  is a double free). Membership-only — never iterated. */
    std::unordered_set<Addr> in_flight_;
    /**
     * Heap page -> owning chunk (DESIGN.md §14.4): chunks are
     * page-granular, non-overlapping, and never erased, so entries are
     * never invalidated.
     */
    std::vector<const ChunkMeta *> chunk_by_page_;
    /** One bit per heap granule: set iff a live object starts there
     *  (object bases are 16-byte aligned inside the heap window). */
    std::vector<std::uint64_t> live_bits_;
    std::size_t live_bytes_ = 0;
    AllocStats stats_;
};

} // namespace crev::alloc

#endif // CREV_ALLOC_SNMALLOC_LITE_H_
