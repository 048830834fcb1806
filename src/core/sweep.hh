/**
 * @file
 * Component sweeps: measure many cache and TLB configurations against
 * one workload trace in a single pass.
 *
 * The paper's cost/benefit analysis (Section 5.4) combines
 * independently measured per-component CPI contributions: I-cache and
 * D-cache miss ratios from trace-driven simulation and TLB service
 * cycles from Tapeworm, plus a configuration-independent base (write
 * buffer and non-memory stalls). ComponentSweep produces exactly
 * those tables; its TLB slots are the Tapeworm equivalent, one Mmu
 * per configuration replaying the recording with the OS's page
 * invalidations pinned in place.
 *
 * Results are consumed through per-configuration views —
 * `result.icache(i)`, `result.dcache(i)`, `result.tlb(i)` — each
 * bundling the geometry, the raw counters and the derived CPI
 * contribution and miss ratio for one swept configuration. The views
 * are the supported surface (docs/MODEL.md); every indexed accessor
 * is bounds-checked and fails fatally on an out-of-range index.
 */

#ifndef OMA_CORE_SWEEP_HH
#define OMA_CORE_SWEEP_HH

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/component.hh"
#include "core/experiment.hh"
#include "machine/machine.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/logging.hh"
#include "tlb/mmu.hh"
#include "trace/recorded.hh"
#include "workload/system.hh"

namespace oma
{

/**
 * Per-configuration results of one sweep over one workload/OS pair.
 *
 * Access per-configuration data through the icache()/dcache()/tlb()
 * views; the backing storage is private so the bounds-checked views
 * are the only way in.
 */
struct SweepResult
{
    std::uint64_t instructions = 0;
    std::uint64_t references = 0;

    /** Write-buffer stall cycles per instruction (config-independent
     * base, measured on the reference machine). */
    double wbCpi = 0.0;
    /** Non-memory stall cycles per instruction. */
    double otherCpi = 0.0;

    /** Read-only view of one swept cache configuration. */
    struct CacheConfigView
    {
        const CacheGeometry &geom;
        const CacheStats &stats;
        /** Instruction count of the run (the CPI denominator). */
        std::uint64_t instructions;

        /** Overall miss ratio of this configuration. */
        [[nodiscard]] double
        missRatio() const
        {
            return stats.missRatio();
        }

        /** CPI contribution of this configuration (the paper's
         * misses x penalty per instruction). */
        [[nodiscard]] double
        cpi(const MachineParams &mp) const
        {
            const double instr =
                double(std::max<std::uint64_t>(1, instructions));
            return double(stats.totalMisses()) *
                double(mp.missPenalty(geom)) / instr;
        }
    };

    /** Read-only view of one swept TLB configuration. */
    struct TlbConfigView
    {
        const TlbGeometry &geom;
        const MmuStats &stats;
        /** Instruction count of the run (the CPI denominator). */
        std::uint64_t instructions;

        /**
         * CPI contribution: pure refill service only (user + kernel
         * misses). The modify, invalid and page-fault classes are
         * configuration-independent constants (and over-weighted by
         * finite trace length), so like the paper's scoring they do
         * not enter the per-configuration contribution.
         */
        [[nodiscard]] double
        cpi() const
        {
            const double instr =
                double(std::max<std::uint64_t>(1, instructions));
            return double(stats.refillCycles()) / instr;
        }
    };

    /** Read-only view of one swept victim-cache configuration. */
    struct VictimConfigView
    {
        const VictimParams &params;
        const VictimStats &stats;
        /** Instruction count of the run (the CPI denominator). */
        std::uint64_t instructions;

        /** Miss ratio past both the L1 and the victim buffer. */
        [[nodiscard]] double
        missRatio() const
        {
            return stats.missRatio();
        }

        /** CPI contribution: only misses that go to memory pay the
         * machine's miss penalty (a victim-buffer swap-back is
         * served at cache speed). */
        [[nodiscard]] double
        cpi(const MachineParams &mp) const
        {
            const double instr =
                double(std::max<std::uint64_t>(1, instructions));
            return double(stats.misses) *
                double(mp.missPenalty(params.l1)) / instr;
        }
    };

    /** Read-only view of one swept write-buffer configuration. */
    struct WriteBufferConfigView
    {
        const WriteBufferParams &params;
        const WriteBufferStats &stats;

        /** Buffer-full stall cycles per instruction. */
        [[nodiscard]] double
        cpi() const
        {
            return stats.cpiContribution();
        }
    };

    /** Read-only view of one swept hierarchy configuration. */
    struct HierarchyConfigView
    {
        const HierarchyParams &params;
        const HierarchyStats &stats;

        /** Hierarchy stall cycles per instruction. */
        [[nodiscard]] double
        cpi() const
        {
            return stats.cpiContribution();
        }
    };

    /** View of I-cache configuration @p i (fatal when out of range). */
    [[nodiscard]] CacheConfigView
    icache(std::size_t i) const
    {
        const std::size_t s =
            kindSlot(ComponentKind::ICache, i, "icache");
        return {std::get<CacheGeometry>(_slots[s].params),
                std::get<CacheStats>(_stats[s]), instructions};
    }

    /** View of D-cache configuration @p i (fatal when out of range). */
    [[nodiscard]] CacheConfigView
    dcache(std::size_t i) const
    {
        const std::size_t s =
            kindSlot(ComponentKind::DCache, i, "dcache");
        return {std::get<CacheGeometry>(_slots[s].params),
                std::get<CacheStats>(_stats[s]), instructions};
    }

    /** View of TLB configuration @p i (fatal when out of range). */
    [[nodiscard]] TlbConfigView
    tlb(std::size_t i) const
    {
        const std::size_t s = kindSlot(ComponentKind::Tlb, i, "tlb");
        return {std::get<TlbParams>(_slots[s].params).geom,
                std::get<MmuStats>(_stats[s]), instructions};
    }

    /** View of victim configuration @p i (fatal when out of range). */
    [[nodiscard]] VictimConfigView
    victim(std::size_t i) const
    {
        const std::size_t s =
            kindSlot(ComponentKind::Victim, i, "victim");
        return {std::get<VictimParams>(_slots[s].params),
                std::get<VictimStats>(_stats[s]), instructions};
    }

    /** View of write-buffer configuration @p i (fatal when out of
     * range). */
    [[nodiscard]] WriteBufferConfigView
    writeBuffer(std::size_t i) const
    {
        const std::size_t s =
            kindSlot(ComponentKind::WriteBuffer, i, "writeBuffer");
        return {std::get<WriteBufferParams>(_slots[s].params),
                std::get<WriteBufferStats>(_stats[s])};
    }

    /** View of hierarchy configuration @p i (fatal when out of
     * range). */
    [[nodiscard]] HierarchyConfigView
    hierarchy(std::size_t i) const
    {
        const std::size_t s =
            kindSlot(ComponentKind::Hierarchy, i, "hierarchy");
        return {std::get<HierarchyParams>(_slots[s].params),
                std::get<HierarchyStats>(_stats[s])};
    }

    [[nodiscard]] std::size_t
    icacheCount() const
    {
        return kindCount(ComponentKind::ICache);
    }

    [[nodiscard]] std::size_t
    dcacheCount() const
    {
        return kindCount(ComponentKind::DCache);
    }

    [[nodiscard]] std::size_t
    tlbCount() const
    {
        return kindCount(ComponentKind::Tlb);
    }

    [[nodiscard]] std::size_t
    victimCount() const
    {
        return kindCount(ComponentKind::Victim);
    }

    [[nodiscard]] std::size_t
    writeBufferCount() const
    {
        return kindCount(ComponentKind::WriteBuffer);
    }

    [[nodiscard]] std::size_t
    hierarchyCount() const
    {
        return kindCount(ComponentKind::Hierarchy);
    }

    /** Total swept components of every kind. */
    [[nodiscard]] std::size_t
    componentCount() const
    {
        return _slots.size();
    }

  private:
    friend class ComponentSweep;

    [[nodiscard]] std::size_t
    kindCount(ComponentKind kind) const
    {
        return _kindIndex[std::size_t(kind)].size();
    }

    /** Slot index of the @p i -th component of @p kind (fatal when
     * out of range, naming accessor @p what). */
    [[nodiscard]] std::size_t
    kindSlot(ComponentKind kind, std::size_t i, const char *what) const
    {
        const std::vector<std::size_t> &index =
            _kindIndex[std::size_t(kind)];
        fatalIf(i >= index.size(),
                "SweepResult::" + std::string(what) + "(" +
                    std::to_string(i) + "): only " +
                    std::to_string(index.size()) +
                    " configurations swept");
        return index[i];
    }

    /** The heterogeneous component axis: one slot and one counters
     * record per swept component, in sweep order, plus a per-kind
     * index so the typed views stay O(1). */
    std::vector<ComponentSlot> _slots;
    std::vector<ComponentCounters> _stats;
    std::array<std::vector<std::size_t>, numComponentKinds> _kindIndex;
};

/**
 * Runs workload/OS pairs against banks of I-cache, D-cache and TLB
 * configurations simultaneously.
 *
 * The engine is record-then-replay throughout: each workload's trace
 * is captured once into a compact RecordedTrace (on one lane, so the
 * workload RNG advances exactly as in a legacy single-pass run, with
 * OS page invalidations recorded inline at their trace position),
 * then the reference machine and every component replay the
 * recording on private simulator instances. The I- and D-cache slots
 * replay as one Cheetah pass per (stream, line size), which yields
 * each slot's exact CacheStats (`replay/cache_passes` counts the
 * passes); every other slot replays on its own simulator.
 * RunConfig::threads picks the lane count for the replays; serial
 * (threads = 1) runs the same replays inline, so results are bitwise
 * identical for any thread count. A question's workloads share one
 * pool: the calling lane records the next workload while the pool
 * replays the current one, so at most two recordings are live. An
 * explicit recording (System::record) can be swept directly via the
 * RecordedTrace overload, the tests' oracle.
 *
 * When RunConfig::storeDir (or OMA_STORE_DIR) enables the artifact
 * store, every completed replay shard persists as it is produced;
 * the recording never does, because recording it again costs what
 * fetching and decoding it would. A later run loads what it can
 * first: a workload whose every shard is stored is never recorded
 * (`sweep/trace_skips`); otherwise it is recorded once and only the
 * missing shards replay, so a killed sweep resumes at its last
 * completed shard and a corrupt entry is quarantined and
 * transparently re-simulated. Cached runs reproduce live runs
 * bit-for-bit (tests/core/test_store_sweep.cc).
 */
class ComponentSweep
{
  public:
    /**
     * The classic three-kind sweep: one I-cache, D-cache and TLB slot
     * per geometry. Extension components join via addComponent().
     */
    ComponentSweep(std::vector<CacheGeometry> icache_geoms,
                   std::vector<CacheGeometry> dcache_geoms,
                   std::vector<TlbGeometry> tlb_geoms,
                   const MachineParams &reference_machine =
                       MachineParams::decstation3100());

    /** Sweep an explicit heterogeneous component list. */
    explicit ComponentSweep(std::vector<ComponentSlot> slots,
                            const MachineParams &reference_machine =
                                MachineParams::decstation3100());

    /** Append one more component (any kind) to the sweep. */
    void
    addComponent(ComponentSlot slot)
    {
        _slots.push_back(std::move(slot));
    }

    /** The swept component slots, in task order. */
    [[nodiscard]] const std::vector<ComponentSlot> &
    components() const
    {
        return _slots;
    }

    /**
     * Measure every workload of @p workloads on one pool, and return
     * one SweepResult per listed workload, in list order. A workload
     * listed twice is measured once and its result copied. Records
     * into @p observation (the calling thread's scratch
     * Observation::none() by default), from the calling lane only:
     * each workload's counters, per kind summed over its slots in
     * task order and exported after its replay, plus phase timings,
     * per-kind core time, store hit/miss counters and one progress
     * tick per task. Which observation the sweep records into never
     * changes a SweepResult (tests/core/test_observed_sweep.cc holds
     * bitwise identity at 1 and 4 threads).
     */
    [[nodiscard]] std::vector<SweepResult>
    run(const std::vector<WorkloadParams> &workloads, OsKind os,
        const RunConfig &run = RunConfig(),
        obs::Observation &observation = obs::Observation::none()) const;

    /** Measure one workload: the list form with one element. */
    [[nodiscard]] SweepResult
    run(const WorkloadParams &workload, OsKind os,
        const RunConfig &run = RunConfig(),
        obs::Observation &observation = obs::Observation::none()) const;

    /**
     * Sweep an existing recording (System::record output) on
     * @p threads lanes (0 = hardware, 1 = serial). Reproduces the
     * live-run SweepResult exactly when the recording came from the
     * same workload/OS/seed/length. Never touches the artifact store: a
     * bare recording carries no provenance to fingerprint.
     */
    [[nodiscard]] SweepResult
    run(const RecordedTrace &trace, unsigned threads = 0,
        obs::Observation &observation = obs::Observation::none()) const;

  private:
    /** Yields measurement @p w's recording, recording it into the
     * empty @p slot when it must; called on the calling lane at most
     * once per measurement, and only when some task of it has no
     * stored shard. */
    using TraceSource =
        std::function<const RecordedTrace &(std::size_t w,
                                            RecordedTrace &slot)>;

    /** The one sweep engine behind every run(): one measurement per
     * shard base key in @p base_keys. Load every task's stored shard
     * it can, then replay the rest over each recording, recording
     * one measurement ahead. Storeless (@p store nullptr), every task
     * replays. */
    std::vector<SweepResult>
    sweepTasks(const TraceSource &trace, unsigned threads,
               obs::Observation &observation, const ArtifactStore *store,
               const std::vector<Fingerprint> &base_keys) const;

    std::vector<ComponentSlot> _slots;
    MachineParams _refMachine;
};

/**
 * Average per-configuration CPI tables over a set of SweepResults
 * (the paper reports suite averages). All results must have been
 * produced with identical geometry lists.
 */
struct ComponentCpiTables
{
    std::vector<CacheGeometry> icacheGeoms;
    std::vector<double> icacheCpi;
    std::vector<CacheGeometry> dcacheGeoms;
    std::vector<double> dcacheCpi;
    std::vector<TlbGeometry> tlbGeoms;
    std::vector<double> tlbCpi;

    /** One averaged extension candidate: a victim-cache organization
     * competing against the I-cache axis. */
    struct VictimOption
    {
        VictimParams params;
        double cpi = 0.0;
    };

    /** One averaged write-buffer depth candidate. */
    struct WriteBufferOption
    {
        WriteBufferParams params;
        double cpi = 0.0;
    };

    /** One averaged hierarchy candidate (replaces the split I/D
     * axes of an allocation wholesale). */
    struct HierarchyOption
    {
        HierarchyParams params;
        double cpi = 0.0;
    };

    /** Extension axes (empty for the paper's classic space). */
    std::vector<VictimOption> victimOptions;
    std::vector<WriteBufferOption> wbOptions;
    std::vector<HierarchyOption> hierarchyOptions;
    /** Base of an allocation's total CPI (1.0, as in Tables 6/7). */
    double baseCpi = 1.0;
    /** Config-independent write-buffer stall CPI (informational). */
    double wbCpi = 0.0;
    /** Config-independent non-memory stall CPI (informational). */
    double otherCpi = 0.0;

    [[nodiscard]] static ComponentCpiTables average(
        const std::vector<SweepResult> &results,
        const MachineParams &mp);
};

} // namespace oma

#endif // OMA_CORE_SWEEP_HH
