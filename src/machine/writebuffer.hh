/**
 * @file
 * Write-buffer model.
 *
 * The DECstation 3100 couples its write-through caches to a 4-entry
 * write buffer that retires one word to memory every few cycles; the
 * CPU stalls when a store finds the buffer full. Because the
 * simulators are event-count based rather than cycle accurate, the
 * buffer tracks retire-completion times against the machine's running
 * cycle count and reports the stall a store incurs.
 */

#ifndef OMA_MACHINE_WRITEBUFFER_HH
#define OMA_MACHINE_WRITEBUFFER_HH

#include <cstdint>
#include <deque>
#include <string>

#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "trace/memref.hh"

namespace oma
{

/** Configuration of a write buffer as a swept component. */
struct WriteBufferParams
{
    /** Buffer depth in words (must be at least 1). */
    std::uint64_t entries = 4;
    /** Memory cycles to retire one word (must be at least 1). */
    std::uint64_t drainCycles = 3;

    /** Empty when a buffer of this shape can exist, else why not. */
    [[nodiscard]] std::string
    check() const
    {
        if (entries == 0 || drainCycles == 0)
            return "WriteBuffer needs entries >= 1 and drain_cycles >= 1";
        return {};
    }

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.u64("wb.entries", entries);
        fp.u64("wb.drain_cycles", drainCycles);
    }
};

/** Counters of a standalone write-buffer simulation. */
struct WriteBufferStats
{
    std::uint64_t instructions = 0;
    std::uint64_t stores = 0;
    std::uint64_t stallCycles = 0; //!< Buffer-full stalls.

    /** Call @p f(name, s.field...) for every counter, in store-payload
     * order, under its run-report name (CacheStats::forEachCounter). */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("instructions", s.instructions...);
        f("stores", s.stores...);
        f("stall_cycles", s.stallCycles...);
    }

    /** Write-buffer stall cycles per instruction. */
    [[nodiscard]] double
    cpiContribution() const
    {
        return instructions == 0
            ? 0.0
            : double(stallCycles) / double(instructions);
    }
};

/** A FIFO write buffer with serialized memory retirement. */
class WriteBuffer
{
  public:
    /**
     * @param entries Buffer depth in words; must be at least 1 (a
     *        zero-entry buffer would pop an empty retire queue in
     *        store()).
     * @param drain_cycles Memory cycles to retire one word; must be
     *        at least 1 (instant retirement is not a write buffer).
     */
    WriteBuffer(std::uint64_t entries, std::uint64_t drain_cycles)
        : _entries(entries), _drain(drain_cycles)
    {
        const std::string error =
            WriteBufferParams{entries, drain_cycles}.check();
        fatalIf(!error.empty(), error);
    }

    /**
     * Push one word at machine time @p now (cycles).
     *
     * @return stall cycles suffered because the buffer was full.
     */
    std::uint64_t
    store(std::uint64_t now)
    {
        ++_stores;
        // Retire completed words.
        while (!_done.empty() && _done.front() <= now)
            _done.pop_front();

        std::uint64_t stall = 0;
        if (_done.size() >= _entries) {
            stall = _done.front() - now;
            now = _done.front();
            _done.pop_front();
            _stallCycles += stall;
        }
        const std::uint64_t start =
            _done.empty() ? now : std::max(now, _done.back());
        _done.push_back(start + _drain);
        return stall;
    }

    /**
     * A cache-miss read conflicts with the write currently retiring
     * on the memory bus (reads bypass queued writes after an address
     * check, but cannot preempt the write in progress). Advances to
     * @p now and returns the cycles the read must wait for the
     * in-flight write to complete.
     */
    std::uint64_t
    syncWait(std::uint64_t now)
    {
        while (!_done.empty() && _done.front() <= now)
            _done.pop_front();
        if (_done.empty())
            return 0;
        const std::uint64_t wait = _done.front() - now;
        _done.pop_front();
        _stallCycles += wait;
        return wait;
    }

    /** Total stall cycles caused by a full buffer. */
    std::uint64_t stallCycles() const { return _stallCycles; }

    /** Total words pushed. */
    std::uint64_t stores() const { return _stores; }

  private:
    std::uint64_t _entries;
    std::uint64_t _drain;
    std::deque<std::uint64_t> _done; //!< Retire-completion times.
    std::uint64_t _stallCycles = 0;
    std::uint64_t _stores = 0;
};

/**
 * Standalone trace-driven write-buffer simulation: the write buffer
 * as a *swept component* rather than a fixture of one Machine.
 *
 * The model keeps its own cycle count — one base cycle per
 * instruction fetch, plus the buffer-full stalls its own stores
 * suffer — so a depth sweep measures how the store stream alone
 * pressures each candidate depth, independent of cache-miss timing.
 * (The write-through machines the paper measures push every store
 * into the buffer, so the store stream is what a depth decision must
 * absorb; cache-miss interactions are second-order and configuration-
 * coupled, which is exactly what a per-component table must not be.)
 *
 * Every reference kind is observed through one observe() body, which
 * the write-buffer component's chunk replay (core/component.hh) drives
 * one reference at a time.
 */
class WriteBufferSim
{
  public:
    explicit WriteBufferSim(const WriteBufferParams &params)
        : _wb(params.entries, params.drainCycles), _params(params)
    {
    }

    /** Observe one reference of the stream (any kind). */
    void
    observe(RefKind kind)
    {
        if (kind == RefKind::IFetch) {
            ++_stats.instructions;
            ++_now;
            return;
        }
        if (kind == RefKind::Store) {
            ++_stats.stores;
            const std::uint64_t stall = _wb.store(_now);
            _now += stall;
            _stats.stallCycles += stall;
        }
    }

    [[nodiscard]] const WriteBufferStats &stats() const
    {
        return _stats;
    }

    [[nodiscard]] const WriteBufferParams &params() const
    {
        return _params;
    }

  private:
    WriteBuffer _wb;
    WriteBufferParams _params;
    WriteBufferStats _stats;
    std::uint64_t _now = 0;
};

} // namespace oma

#endif // OMA_MACHINE_WRITEBUFFER_HH
