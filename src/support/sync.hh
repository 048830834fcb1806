/**
 * @file
 * Annotated synchronization primitives: the only sanctioned mutex.
 *
 * Every lock in this codebase is an oma::Mutex acquired through an
 * oma::LockGuard; the raw std primitives are forbidden outside this
 * file by the `lock-audit` lint rule. The wrappers buy three things
 * over std::mutex (docs/STATIC_ANALYSIS.md, "Concurrency contract"):
 *
 * * *Capability annotations.* Mutex is an OMA_CAPABILITY and
 *   LockGuard an OMA_SCOPED_CAPABILITY, so every member marked
 *   OMA_GUARDED_BY(mutex) is compiler-verified (clang
 *   -Wthread-safety, the OMA_THREAD_SAFETY build) to be touched only
 *   under its lock.
 *
 * * *RAII only.* Mutex::lock()/unlock() exist to satisfy the
 *   capability model and the guard, but naked calls are flagged by
 *   lock-audit: a lock that cannot leak past a scope cannot be left
 *   held on an exception path.
 *
 * * *Deterministic deadlock detection.* A Mutex may carry a
 *   compile-in rank (OMA_LOCK_RANK(n)). When rank checking is
 *   compiled in (OMA_LOCK_RANK_CHECKS, default on; forced on in the
 *   sanitizer/CI builds) every thread tracks the ranks it holds, and
 *   acquiring a ranked mutex whose rank is not strictly greater than
 *   every held rank is an immediate fatal error — so a lock-order
 *   inversion is caught on its *first* execution, in any single run,
 *   rather than probabilistically when two threads interleave just
 *   so. Unranked mutexes (rank 0) are exempt from ordering but still
 *   annotated. When compiled out the rank machinery costs nothing:
 *   no rank member, no per-thread state.
 *
 * The ranking table for every mutex in the tree lives in
 * docs/STATIC_ANALYSIS.md; ranks increase from outer (held while
 * calling into other subsystems) to leaf (never held across a call
 * out), so a thread's acquired ranks are always strictly increasing.
 */

#ifndef OMA_SUPPORT_SYNC_HH
#define OMA_SUPPORT_SYNC_HH

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/thread_annotations.hh"

/** Compile-in lock-rank checking: default on (the checks are a few
 * thread-local vector operations per ranked acquisition — noise next
 * to the lock itself); configure with -DOMA_LOCK_RANK_CHECKS=OFF for
 * a zero-cost build. The CMake option of the same name drives this. */
#ifndef OMA_LOCK_RANK_CHECKS
#if defined(NDEBUG) && !defined(__SANITIZE_THREAD__)
#define OMA_LOCK_RANK_CHECKS 0
#else
#define OMA_LOCK_RANK_CHECKS 1
#endif
#endif

/** Spell a mutex's compile-in rank; expands to "unranked" when rank
 * checking is compiled out so the constant folds away entirely. */
#if OMA_LOCK_RANK_CHECKS
#define OMA_LOCK_RANK(n) (n)
#else
#define OMA_LOCK_RANK(n) 0u
#endif

namespace oma
{

/**
 * The lock-rank table: one named constant per mutex in the tree,
 * strictly ordered outer-to-leaf. A thread may only acquire a ranked
 * mutex whose rank is strictly greater than every rank it already
 * holds, so two ranked mutexes can never be waited on in both orders.
 * Keep this table in sync with docs/STATIC_ANALYSIS.md.
 */
namespace lockrank
{
inline constexpr unsigned none = 0;        //!< Unranked: order-exempt.
inline constexpr unsigned obsProgress = 10; //!< obs::Progress::_mutex.
inline constexpr unsigned storeStats = 20; //!< ArtifactStore::_statsMutex.
inline constexpr unsigned threadPool = 30; //!< ThreadPool::_mutex (leaf).
} // namespace lockrank

#if OMA_LOCK_RANK_CHECKS

namespace detail
{

/** Ranks of the ranked mutexes this thread currently holds, in
 * acquisition order. Thread-local, so maintenance is race-free. */
inline std::vector<unsigned> &
heldRanks()
{
    thread_local std::vector<unsigned> ranks;
    return ranks;
}

/** Fatal on an acquisition-order inversion; records @p rank held. */
inline void
rankAcquire(unsigned rank)
{
    std::vector<unsigned> &held = heldRanks();
    for (const unsigned h : held) {
        fatalIf(rank <= h,
                "lock-rank inversion: acquiring a mutex of rank " +
                    std::to_string(rank) +
                    " while holding a mutex of rank " +
                    std::to_string(h) +
                    " (ranks must strictly increase; table in "
                    "docs/STATIC_ANALYSIS.md)");
    }
    held.push_back(rank);
}

/** Forget @p rank (locks may be released in any order). */
inline void
rankRelease(unsigned rank)
{
    std::vector<unsigned> &held = heldRanks();
    for (std::size_t i = held.size(); i > 0; --i) {
        if (held[i - 1] == rank) {
            held.erase(held.begin() + long(i - 1));
            return;
        }
    }
    panic("lock-rank bookkeeping: releasing rank " +
          std::to_string(rank) + " that this thread does not hold");
}

} // namespace detail

#endif // OMA_LOCK_RANK_CHECKS

/**
 * A mutex carrying a thread-safety capability and an optional rank.
 * Acquire it through LockGuard; naked lock()/unlock() calls are
 * flagged by the lock-audit lint rule even inside the owning class.
 */
class OMA_CAPABILITY("mutex") Mutex
{
  public:
    /** @param rank Position in the lockrank table; lockrank::none
     *        (the default) exempts this mutex from order checking. */
    explicit Mutex(unsigned rank = lockrank::none)
#if OMA_LOCK_RANK_CHECKS
        : _rank(rank)
#endif
    {
        (void)rank;
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() OMA_ACQUIRE()
    {
#if OMA_LOCK_RANK_CHECKS
        if (_rank != lockrank::none)
            detail::rankAcquire(_rank);
#endif
        _raw.lock();
    }

    void
    unlock() OMA_RELEASE()
    {
        _raw.unlock();
#if OMA_LOCK_RANK_CHECKS
        if (_rank != lockrank::none)
            detail::rankRelease(_rank);
#endif
    }

    /** Try without blocking; on success the caller holds the lock.
     * Rank-checked exactly like lock(): a try that *would* invert
     * the order is flagged even though it could not deadlock, so a
     * latent inversion never hides behind try_lock. */
    [[nodiscard]] bool
    tryLock() OMA_TRY_ACQUIRE(true)
    {
#if OMA_LOCK_RANK_CHECKS
        if (_rank != lockrank::none)
            detail::rankAcquire(_rank);
#endif
        if (_raw.try_lock())
            return true;
#if OMA_LOCK_RANK_CHECKS
        if (_rank != lockrank::none)
            detail::rankRelease(_rank);
#endif
        return false;
    }

  private:
    friend class CondVar;
    std::mutex _raw;
#if OMA_LOCK_RANK_CHECKS
    unsigned _rank;
#endif
};

/**
 * RAII scope lock over an oma::Mutex — the only way engine code
 * acquires one. Scoped-capability annotated, so clang tracks the
 * guarded region precisely.
 */
class OMA_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) OMA_ACQUIRE(mutex) : _mutex(mutex)
    {
        _mutex.lock();
    }

    ~LockGuard() OMA_RELEASE() { _mutex.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    friend class CondVar;
    Mutex &_mutex;
};

/**
 * Condition variable bound to oma::Mutex via LockGuard. wait()
 * atomically releases the guard's mutex and reacquires it before
 * returning, exactly like std::condition_variable; spurious wakeups
 * are possible, so always wait in a `while (!condition)` loop — the
 * loop form (rather than a predicate lambda) also keeps guarded-state
 * reads inside the annotated caller where the analysis can see the
 * held lock.
 */
class CondVar
{
  public:
    /** Release @p guard's mutex, sleep, reacquire before returning.
     * The mutex's rank stays recorded as held across the wait: from
     * the caller's perspective the lock is held on both sides, and
     * nothing may be acquired in between. */
    void
    wait(LockGuard &guard) OMA_NO_THREAD_SAFETY_ANALYSIS
    {
        // oma-lint: allow(lock-audit): the sync shim adapts the
        // guard's already-held mutex to the std wait protocol.
        std::unique_lock<std::mutex> lock(guard._mutex._raw,
                                          std::adopt_lock);
        _cv.wait(lock);
        // Still locked after wait(); hand ownership back to the
        // guard rather than unlocking on unique_lock destruction.
        (void)lock.release();
    }

    void notifyOne() { _cv.notify_one(); }
    void notifyAll() { _cv.notify_all(); }

  private:
    std::condition_variable _cv;
};

} // namespace oma

#endif // OMA_SUPPORT_SYNC_HH
