#include "vm/address_space.h"

#include "base/logging.h"
#include "cap/compression.h"
#include "check/race_checker.h"

namespace crev::vm {

namespace {

// Window extents (DESIGN.md §14.4). Every PTE the simulator ever
// creates lives in the heap window (reserve() hands out only
// [kHeapBase, kHeapCeiling)) or the shadow window (implicit shadow
// object, materialised by makeResident); guard pages exist only inside
// heap reservations.
constexpr Addr kShadowWindowEnd = shadowByteFor(kHeapCeiling) + kPageSize;

} // namespace

AddressSpace::Window::Window(Addr base, Addr end)
    : base_(base), size_((end - base) / kPageSize),
      leaves_((size_ + kLeafPages - 1) / kLeafPages)
{
}

AddressSpace::Slot &
AddressSpace::Window::at(Addr page)
{
    const Addr i = (page - base_) / kPageSize;
    CREV_ASSERT(i < size_);
    std::unique_ptr<Leaf> &leaf = leaves_[i / kLeafPages];
    if (leaf == nullptr)
        leaf = std::make_unique<Leaf>();
    return (*leaf)[i % kLeafPages];
}

void
AddressSpace::Window::erase(Addr page)
{
    Slot *s = find(page);
    CREV_ASSERT(s != nullptr);
    s->pte = Pte{};
    s->present = false;
}

AddressSpace::AddressSpace(mem::PhysMem &pm)
    : pm_(pm), heap_slots_(kHeapBase, kHeapCeiling),
      shadow_slots_(kShadowBase, kShadowWindowEnd)
{
}

Addr
AddressSpace::reserve(Addr length, bool cap_store)
{
    CREV_ASSERT(length > 0);
    const Addr req = roundUp(length, kPageSize);
    const Addr align =
        std::max<Addr>(cap::representableAlignment(req), kPageSize);
    const Addr padded = roundUp(cap::representableLength(req), kPageSize);

    const Addr base = roundUp(next_va_, align);
    next_va_ = base + padded;
    CREV_ASSERT(next_va_ <= kHeapCeiling);

    Reservation r;
    r.base = base;
    r.length = padded;
    r.requested = req;
    r.mapped_bytes = req;
    // Reservation bases are strictly increasing (next_va_ is monotone,
    // never recycled), so the end hint makes this O(1) instead of a
    // root-to-leaf rb-tree descent.
    reservations_.emplace_hint(reservations_.end(), base, r);
    mapped_bytes_ += req;

    // Representability padding starts life as guard pages
    // (paper footnote 26); they are part of the reservation but any
    // touch faults.
    for (Addr va = base; va < base + padded; va += kPageSize) {
        Slot &s = heap_slots_.at(va);
        s.pte = Pte{};
        s.pte.cap_store = cap_store;
        s.pte.write = true;
        s.present = true;
        s.guard = va >= base + req;
    }
    return base;
}

bool
AddressSpace::canReserve(Addr length) const
{
    if (length == 0)
        return false;
    const Addr req = roundUp(length, kPageSize);
    const Addr align =
        std::max<Addr>(cap::representableAlignment(req), kPageSize);
    const Addr padded = roundUp(cap::representableLength(req), kPageSize);
    const Addr base = roundUp(next_va_, align);
    return base + padded <= kHeapCeiling;
}

void
AddressSpace::unmap(MappingKey, sim::SimThread &t, Addr base, Addr length)
{
    CREV_ASSERT(pageOffset(base) == 0);
    Reservation *r = reservationFor(base);
    CREV_ASSERT(r != nullptr);
    CREV_ASSERT(base + length <= r->base + r->requested);
    CREV_ASSERT(r->state == ReservationState::kActive);

    if (auto *c = t.scheduler().checker()) {
        const bool locked = pmap_lock_.heldBy(t) ||
                            t.scheduler().stwOwnedBy(t);
        for (Addr va = base; va < base + length; va += kPageSize)
            c->onPteTeardown(t.id(), t.now(), va, locked);
    }

    for (Addr va = base; va < base + length; va += kPageSize) {
        Slot *s = heap_slots_.find(va);
        CREV_ASSERT(s != nullptr && s->present);
        if (s->guard)
            continue;
        if (s->pte.valid) {
            pm_.freeFrame(s->pte.pfn);
            freed_frames_.push_back(s->pte.pfn);
            s->pte.valid = false;
            s->pte.pfn = 0;
            --resident_;
        }
        s->guard = true;
        CREV_ASSERT(r->mapped_bytes >= kPageSize);
        r->mapped_bytes -= kPageSize;
        mapped_bytes_ -= kPageSize;
    }

    if (r->mapped_bytes == 0) {
        r->state = ReservationState::kQuarantined;
        newly_quarantined_.push_back(r);
    }
}

std::vector<Reservation *>
AddressSpace::takeNewlyQuarantined(MappingKey, sim::SimThread &t)
{
    std::vector<Reservation *> out;
    // The hand-off is only legal outside a revocation epoch (the
    // munmap quiesce barrier); the checker enforces the parity.
    if (auto *c = t.scheduler().checker())
        c->onMappingHandoff(t.id(), t.now(),
                            t.scheduler().shuttingDown());
    newly_quarantined_.swap(out);
    return out;
}

void
AddressSpace::release(MappingKey, sim::SimThread &t, Reservation *r)
{
    CREV_ASSERT(r->state == ReservationState::kQuarantined);
    r->state = ReservationState::kFreed;
    if (auto *c = t.scheduler().checker()) {
        const bool locked = pmap_lock_.heldBy(t) ||
                            t.scheduler().stwOwnedBy(t);
        for (Addr va = r->base; va < r->base + r->length;
             va += kPageSize)
            c->onPteTeardown(t.id(), t.now(), va, locked);
    }
    // Reset in place, so a Pte pointer held across a yield reads an
    // invalid entry rather than dangling. The guard bits stay.
    for (Addr va = r->base; va < r->base + r->length; va += kPageSize)
        heap_slots_.erase(va);

    // Virtual addresses are never recycled: address-space non-reuse is
    // exactly the property revocation protects.
}

Reservation *
AddressSpace::reservationFor(Addr va)
{
    auto it = reservations_.upper_bound(va);
    if (it == reservations_.begin())
        return nullptr;
    --it;
    Reservation &r = it->second;
    if (va >= r.base && va < r.base + r.length)
        return &r;
    return nullptr;
}

Pte *
AddressSpace::findPte(Addr va)
{
    const Addr page = pageBase(va);
    Slot *s = windowFor(page).find(page);
    return s != nullptr && s->present ? &s->pte : nullptr;
}

bool
AddressSpace::inShadow(Addr va)
{
    return va >= kShadowBase && va < kShadowWindowEnd;
}

FaultKind
AddressSpace::classify(Addr va, bool is_store, bool is_cap_store,
                       Pte **pte_out)
{
    const Addr page = pageBase(va);
    Slot *s = windowFor(page).find(page);
    Pte *p = s != nullptr && s->present ? &s->pte : nullptr;
    if (pte_out != nullptr)
        *pte_out = p;
    if (s != nullptr && s->guard)
        return FaultKind::kGuard;
    if (p == nullptr) // the shadow object is implicit and anonymous
        return inShadow(page) ? FaultKind::kDemandZero
                              : FaultKind::kNotMapped;
    if (!p->valid)
        return FaultKind::kDemandZero;
    if (is_store && !p->write)
        return FaultKind::kWriteProtect;
    if (is_cap_store && !p->cap_store)
        return FaultKind::kCapStore;
    return FaultKind::kNone;
}

Pte &
AddressSpace::makeResident(Addr va)
{
    const Addr page = pageBase(va);
    Slot &s = windowFor(page).at(page);
    CREV_ASSERT(!s.guard);
    s.present = true;
    Pte &p = s.pte;
    if (!p.valid) {
        if (inShadow(va)) {
            // The shadow bitmap never carries capabilities.
            p.cap_store = false;
            p.write = true;
        }
        p.pfn = pm_.allocFrame();
        p.valid = true;
        ++resident_;
    }
    return p;
}

void
AddressSpace::forEachResidentPage(
    const std::function<void(Addr, Pte &)> &fn)
{
    auto visit = [&](Addr page, Slot &s) {
        if (s.present && s.pte.valid)
            fn(page, s.pte);
    };
    heap_slots_.forEach(visit);
    shadow_slots_.forEach(visit);
}

void
AddressSpace::notePtePublish(sim::SimThread &t, Addr va, PteContext ctx)
{
    const bool ok =
        pmap_lock_.heldBy(t) || t.scheduler().stwOwnedBy(t);
    if (auto *c = t.scheduler().checker()) {
        c->onPtePublish(t.id(), t.now(), pageBase(va), ok);
        return;
    }
    // No checker attached: enforce the claimed discipline outright.
    if (ctx == PteContext::kLocked)
        pmap_lock_.assertHeld(t);
    else
        CREV_ASSERT(ok);
}

std::vector<Addr>
AddressSpace::takeFreedFrames()
{
    std::vector<Addr> out;
    out.swap(freed_frames_);
    return out;
}

} // namespace crev::vm
