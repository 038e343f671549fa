/**
 * @file
 * The memory request packet shared by every memory-system component.
 *
 * A request travels down the hierarchy (core -> SRAM caches -> DRAM
 * cache scheme -> DRAM) and completes by invoking its callback with the
 * completion tick. Writes are posted: their callback fires when the
 * request is accepted at its destination queue, not when the DRAM array
 * is updated.
 *
 * Requests are reference-counted intrusively and recycled through a
 * thread-local freelist: a simulation issues millions of them and the
 * previous std::shared_ptr representation made the allocator (and its
 * atomic refcounts) a measurable fraction of total runtime. The
 * freelist is safe because a Simulation and everything in it is
 * confined to one thread (the runner's determinism contract,
 * docs/RUNNER.md): a request is always created and released on the
 * thread that runs its System.
 */

#ifndef NOMAD_MEM_REQUEST_HH
#define NOMAD_MEM_REQUEST_HH

#include <cstdint>
#include <string>
#include <utility>

#include "sim/inline_fn.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nomad
{

/** Which DRAM device an address refers to. */
enum class MemSpace : std::uint8_t
{
    OffPackage, ///< Large-capacity DDR4 (physical frames).
    OnPackage,  ///< High-bandwidth HBM (DRAM cache frames).
};

/**
 * Why a DRAM access happens; drives the Fig 10 bandwidth breakdown.
 */
enum class Category : std::uint8_t
{
    Demand,    ///< Demand data read/write from the SRAM hierarchy.
    Metadata,  ///< DC tag / control-bit traffic (HW-based schemes).
    Fill,      ///< Cache-fill page/line copy traffic.
    Writeback, ///< Dirty eviction traffic.
    PageWalk,  ///< Page-table walker accesses.
    NumCategories,
};

/** Printable name of a traffic category. */
const char *categoryName(Category c);

struct MemRequest;
class MemRequestPtr;
class PortWaiter;

namespace detail
{
struct RequestPool;
} // namespace detail

MemRequestPtr makeRequest(Addr addr, bool is_write, Category cat,
                          MemSpace space, Tick now,
                          InlineFn<void(Tick)> cb = nullptr,
                          int core_id = -1);

/** One memory transaction; always BlockBytes (64B) wide. */
struct MemRequest
{
    /** Callback invoked exactly once at completion. */
    using Callback = InlineFn<void(Tick completion_tick)>;

    Addr addr = 0;                       ///< Byte address in @ref space.
    MemSpace space = MemSpace::OffPackage;
    bool isWrite = false;
    Category category = Category::Demand;
    int coreId = -1;                     ///< Originating core, -1 = engine.
    Tick created = 0;                    ///< Tick the request was created.
    std::uint64_t seqNo = 0;             ///< Global issue order tag.
    bool latencyTracked = false;         ///< DC access-time wrap applied.
    /** The write carries a whole 64B block (e.g., a cache writeback),
     *  so a receiving cache may install it without a fill. */
    bool fullLine = false;
    Callback onComplete;                 ///< May be empty for posted writes.

    /**
     * Demand-read latency sampling (DramCacheScheme::trackDemandRead).
     * Stored as plain fields instead of a wrapping closure so tracking
     * never forces the completion callback out of inline storage.
     */
    stats::Average *latencyStat = nullptr;
    Tick trackStart = 0;

    /** Fire and clear the completion callback. */
    void
    complete(Tick when)
    {
        if (latencyStat) {
            // Sample before the callback: downstream stat updates in
            // the callback must observe the same accumulation order
            // as the original closure-based wrapping.
            latencyStat->sample(static_cast<double>(when - trackStart));
            latencyStat = nullptr;
        }
        if (onComplete) {
            // Move out first: the callback may recycle this request.
            Callback cb = std::move(onComplete);
            cb(when);
        }
    }

  private:
    friend class MemRequestPtr;
    friend struct detail::RequestPool;
    friend MemRequestPtr makeRequest(Addr, bool, Category, MemSpace,
                                     Tick, Callback, int);

    std::uint32_t refs_ = 0;     ///< Intrusive count (thread-confined).
    MemRequest *poolNext_ = nullptr; ///< Freelist link while recycled.
};

namespace detail
{

/**
 * Thread-local request freelist. Recycled packets are returned here
 * and handed back out by makeRequest(); the chain is deleted at
 * thread exit so leak checkers stay quiet.
 */
struct RequestPool
{
    MemRequest *free = nullptr;
    std::uint64_t live = 0;     ///< Currently allocated (not in pool).
    std::uint64_t recycled = 0; ///< Freelist hits since thread start.

    ~RequestPool()
    {
        while (free) {
            MemRequest *next = free->poolNext_;
            delete free;
            free = next;
        }
    }
};

inline RequestPool &
requestPool()
{
    static thread_local RequestPool pool;
    return pool;
}

} // namespace detail

/**
 * Requests currently allocated (not parked in the freelist) on this
 * thread. A fully torn-down System leaves this where it found it;
 * the runner's retry path audits the balance after every attempt so
 * an abort-path leak cannot accumulate across in-process retries
 * (docs/RUNNER.md).
 */
inline std::uint64_t
liveRequestCount()
{
    return detail::requestPool().live;
}

/**
 * Intrusive refcounted handle to a pooled MemRequest. Mirrors the
 * std::shared_ptr surface the simulator uses (copy, move, ->, bool,
 * get), minus aliasing/weak refs, and without atomic refcount traffic.
 */
class MemRequestPtr
{
  public:
    MemRequestPtr() = default;
    MemRequestPtr(std::nullptr_t) {}

    explicit MemRequestPtr(MemRequest *p) : p_(p)
    {
        if (p_)
            ++p_->refs_;
    }

    MemRequestPtr(const MemRequestPtr &o) : p_(o.p_)
    {
        if (p_)
            ++p_->refs_;
    }

    MemRequestPtr(MemRequestPtr &&o) noexcept : p_(o.p_)
    {
        o.p_ = nullptr;
    }

    MemRequestPtr &
    operator=(const MemRequestPtr &o)
    {
        if (p_ != o.p_) {
            release();
            p_ = o.p_;
            if (p_)
                ++p_->refs_;
        }
        return *this;
    }

    MemRequestPtr &
    operator=(MemRequestPtr &&o) noexcept
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~MemRequestPtr() { release(); }

    MemRequest *operator->() const { return p_; }
    MemRequest &operator*() const { return *p_; }
    MemRequest *get() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    void
    reset()
    {
        release();
    }

    friend bool
    operator==(const MemRequestPtr &a, const MemRequestPtr &b)
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const MemRequestPtr &a, const MemRequestPtr &b)
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const MemRequestPtr &a, std::nullptr_t)
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const MemRequestPtr &a, std::nullptr_t)
    {
        return a.p_ != nullptr;
    }

  private:
    void
    release()
    {
        if (p_ && --p_->refs_ == 0) {
            detail::RequestPool &pool = detail::requestPool();
            // Drop captured state now, not at reuse time.
            p_->onComplete = nullptr;
            p_->latencyStat = nullptr;
            p_->poolNext_ = pool.free;
            pool.free = p_;
            --pool.live;
        }
        p_ = nullptr;
    }

    MemRequest *p_ = nullptr;
};

/** Convenience factory; pops the thread-local freelist when possible. */
inline MemRequestPtr
makeRequest(Addr addr, bool is_write, Category cat, MemSpace space,
            Tick now, MemRequest::Callback cb, int core_id)
{
    detail::RequestPool &pool = detail::requestPool();
    MemRequest *req = pool.free;
    if (req) {
        pool.free = req->poolNext_;
        req->poolNext_ = nullptr;
        ++pool.recycled;
    } else {
        req = new MemRequest;
    }
    ++pool.live;
    req->addr = addr;
    req->space = space;
    req->isWrite = is_write;
    req->category = cat;
    req->coreId = core_id;
    req->created = now;
    req->seqNo = 0;
    req->latencyTracked = false;
    req->fullLine = false;
    req->onComplete = std::move(cb);
    req->latencyStat = nullptr;
    req->trackStart = 0;
    return MemRequestPtr(req);
}

/**
 * Downstream-facing port with retry-on-release back-pressure
 * (sim/waiter.hh). tryAccess() returns false when the component cannot
 * accept the request (queue or MSHRs full) and then parks @p waiter on
 * the component that actually refused it; that component wakes it
 * once a retry could succeed. A null waiter means the caller drops a
 * refused request instead of retrying it.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** Offer @p req; true if accepted (ownership of delivery taken). */
    virtual bool tryAccess(const MemRequestPtr &req,
                           PortWaiter *waiter) = 0;
};

} // namespace nomad

#endif // NOMAD_MEM_REQUEST_HH
