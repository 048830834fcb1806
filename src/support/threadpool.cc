/**
 * @file
 * Implementation of the thread pool.
 */

#include "support/threadpool.hh"

#include <limits>

namespace oma
{

namespace
{

/** Set while this thread is executing parallelFor body indices, so a
 * nested submission can be detected and run inline. */
thread_local bool t_inParallelFor = false;

/** Run a parallelFor() caller job on this lane, marked as inside a
 * parallelFor so a submission it makes runs inline. */
void
runCallerJob(const std::function<void()> &job)
{
    struct Inside
    {
        bool outer = t_inParallelFor;
        Inside() { t_inParallelFor = true; }
        ~Inside() { t_inParallelFor = outer; }
    } inside;
    job();
}

} // namespace

unsigned
ThreadPool::resolveThreads(unsigned threads)
{
    if (threads != 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned lanes = resolveThreads(threads);
    _workers.reserve(lanes - 1);
    for (unsigned i = 0; i + 1 < lanes; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lock(_mutex);
        _stopping = true;
    }
    _wake.notifyAll();
    // Join here, not via ~jthread: members are destroyed in reverse
    // declaration order, so the condition variables would die before
    // the workers vector — while a worker may still be inside its
    // final notifyOne().
    for (auto &worker : _workers)
        worker.join();
}

ThreadPoolStats
ThreadPool::stats() const
{
    LockGuard lock(_mutex);
    return _stats;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::size_t end = 0;
        const std::function<void(std::size_t)> *body = nullptr;
        {
            LockGuard lock(_mutex);
            while (!_stopping && _jobGen == seen)
                _wake.wait(lock);
            if (_stopping)
                return;
            seen = _jobGen;
            end = _end;
            body = _body;
        }
        claimIndices(end, *body);
        {
            LockGuard lock(_mutex);
            --_activeWorkers;
        }
        _done.notifyOne();
    }
}

void
ThreadPool::claimIndices(std::size_t end,
                         const std::function<void(std::size_t)> &body)
{
    t_inParallelFor = true;
    for (;;) {
        const std::size_t i =
            _next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end)
            break;
        try {
            body(i);
        } catch (...) {
            LockGuard lock(_mutex);
            if (i < _errorIndex) {
                _errorIndex = i;
                _error = std::current_exception();
            }
        }
    }
    t_inParallelFor = false;
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body,
                        const std::function<void()> &caller_job)
{
    // Nested calls run on worker lanes; counting only top-level
    // submissions keeps jobs/indices a pure function of the work.
    const bool nested = t_inParallelFor;
    if (!nested && begin < end) {
        LockGuard lock(_mutex);
        _stats.jobs += 1;
        _stats.indices += end - begin;
    }
    // Serial pool, a nested call from inside one of our own bodies,
    // or no indices: run inline on this lane (see class comment).
    if (_workers.empty() || nested || begin >= end) {
        if (caller_job)
            runCallerJob(caller_job);
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    {
        LockGuard lock(_mutex);
        _next.store(begin, std::memory_order_relaxed);
        _end = end;
        _body = &body;
        _error = nullptr;
        _errorIndex = std::numeric_limits<std::size_t>::max();
        _activeWorkers = unsigned(_workers.size());
        ++_jobGen;
    }
    _wake.notifyAll();

    std::exception_ptr error;
    if (caller_job) {
        try {
            runCallerJob(caller_job);
        } catch (...) {
            error = std::current_exception();
        }
    }
    claimIndices(end, body); // The caller is a lane too.

    {
        LockGuard lock(_mutex);
        while (_activeWorkers != 0)
            _done.wait(lock);
        _body = nullptr;
        if (!error)
            error = _error;
        _error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(unsigned threads, std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &body)
{
    const unsigned lanes = ThreadPool::resolveThreads(threads);
    if (lanes <= 1 || end - begin <= 1) {
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    ThreadPool pool(lanes);
    pool.parallelFor(begin, end, body);
}

} // namespace oma
