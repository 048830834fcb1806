/**
 * @file
 * A small fixed-size thread pool with a deterministic parallel-for.
 *
 * The design-space sweeps replay one in-memory trace through hundreds
 * of independent simulator instances; that work is embarrassingly
 * parallel, so a chunk-claiming pool over std::jthread is all the
 * machinery needed. Determinism is preserved structurally: every
 * index writes only its own output slot, so the schedule cannot leak
 * into the results, and the caller observes completion of the whole
 * range before continuing.
 *
 * All shared state is annotated against the pool mutex
 * (support/sync.hh); the clang -Wthread-safety build verifies that
 * every access holds it.
 */

#ifndef OMA_SUPPORT_THREADPOOL_HH
#define OMA_SUPPORT_THREADPOOL_HH

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/sync.hh"

namespace oma
{

/** Lifetime work counters of one ThreadPool (observability only). */
struct ThreadPoolStats
{
    std::uint64_t jobs = 0;    //!< parallelFor() calls completed.
    std::uint64_t indices = 0; //!< Total indices across all jobs.
};

/**
 * Fixed-size pool executing parallel-for jobs.
 *
 * The pool owns `lanes - 1` worker threads; the thread calling
 * parallelFor() participates as the remaining lane, so a pool of one
 * lane degenerates to a plain serial loop with no synchronization.
 *
 * Nested submission: a parallelFor() issued from inside a body
 * running on this pool executes inline on the calling lane (serially)
 * rather than deadlocking on the pool's own workers. This keeps
 * nesting safe but gains it no parallelism; structure hot loops as a
 * single flat index space instead.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total lanes including the caller;
     *        0 = std::thread::hardware_concurrency().
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution lanes (worker threads + the calling thread). */
    unsigned
    threadCount() const
    {
        return unsigned(_workers.size()) + 1;
    }

    /** Resolve a threads knob: 0 means hardware_concurrency, min 1. */
    static unsigned resolveThreads(unsigned threads);

    /**
     * Run body(i) for every i in [begin, end); returns when all
     * indices completed. Indices are claimed dynamically (one atomic
     * increment each) so heterogeneous per-index costs load-balance.
     *
     * If any body throws, every index is still attempted and the
     * exception raised by the smallest throwing index is rethrown in
     * the caller — a deterministic choice regardless of schedule.
     *
     * A non-empty @p caller_job runs on the calling lane while the
     * workers start on the indices; the caller then joins them. On a
     * one-lane pool, or nested inside a body, it runs first, inline.
     * It must touch no state the bodies touch; a parallelFor() it
     * issues runs inline. Its exception is rethrown once every index
     * was attempted, ahead of any body's.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body,
                     const std::function<void()> &caller_job = {});

    /** Work submitted so far. Deterministic (a function of the jobs
     * run, not of the schedule) and safe to call from any thread,
     * including concurrently with parallelFor(). */
    ThreadPoolStats stats() const;

  private:
    void workerLoop();
    /** Claim and run indices of the current job on this thread.
     * @p end and @p body are the job parameters the caller read
     * under _mutex (or owns outright), so no guarded state is
     * touched on the claim fast path. */
    void claimIndices(std::size_t end,
                      const std::function<void(std::size_t)> &body);

    // oma-lint: allow(guarded-member): filled in the constructor and
    // joined in the destructor; immutable while any worker runs.
    std::vector<std::jthread> _workers;

    /** Protects every guarded member below; leaf lock — never held
     * while calling out of the pool (rank table in sync.hh). */
    mutable Mutex _mutex{OMA_LOCK_RANK(lockrank::threadPool)};
    CondVar _wake; //!< Workers wait for a new job.
    CondVar _done; //!< Caller waits for job completion.
    std::uint64_t _jobGen OMA_GUARDED_BY(_mutex) = 0;
    unsigned _activeWorkers OMA_GUARDED_BY(_mutex) = 0;
    bool _stopping OMA_GUARDED_BY(_mutex) = false;

    // Next unclaimed index of the current job. Atomic so lanes can
    // claim without the mutex; ordering is inherited from the job
    // publication under _mutex.
    // oma-lint: allow(guarded-member): relaxed atomic claim counter;
    // store/load ordering piggybacks on the _mutex job handshake.
    std::atomic<std::size_t> _next{0};
    std::size_t _end OMA_GUARDED_BY(_mutex) = 0;
    const std::function<void(std::size_t)> *_body
        OMA_GUARDED_BY(_mutex) = nullptr;
    std::exception_ptr _error OMA_GUARDED_BY(_mutex);
    std::size_t _errorIndex OMA_GUARDED_BY(_mutex) = 0;

    ThreadPoolStats _stats OMA_GUARDED_BY(_mutex);
};

/**
 * One-shot helper: run body(i) for i in [begin, end) on @p threads
 * lanes (0 = hardware_concurrency). With one lane the loop runs
 * inline on the calling thread — the legacy serial path, with no
 * threads created and no synchronization.
 */
void parallelFor(unsigned threads, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &body);

} // namespace oma

#endif // OMA_SUPPORT_THREADPOOL_HH
