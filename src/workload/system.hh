/**
 * @file
 * The complete simulated system: one application process, the OS
 * structure model, the X server and (under Mach) the user-level
 * servers, multiplexed into a single reference stream.
 *
 * System is the TraceSource equivalent of what the paper's Monster
 * logic analyzer saw at the R2000 pins: user and kernel references of
 * every participating process, interleaved, with idle time removed.
 */

#ifndef OMA_WORKLOAD_SYSTEM_HH
#define OMA_WORKLOAD_SYSTEM_HH

#include <memory>

#include "trace/recorded.hh"
#include "workload/workload.hh"

namespace oma
{

/** A runnable workload + OS pair. */
class System : public TraceSource
{
  public:
    System(const WorkloadParams &workload, OsKind os_kind,
           std::uint64_t seed);

    bool next(MemRef &ref) override;

    /**
     * Capture up to @p max_refs references into a RecordedTrace,
     * with OS page invalidations recorded inline at their trace
     * position and the stream's non-memory stall rate attached.
     * This is the one recording every replay consumer (sweeps,
     * benches, tests) shares; it replaces the ad-hoc
     * setInvalidateHook + capture-vector pattern. Any previously
     * installed invalidate hook is displaced for the duration of
     * the recording and cleared afterwards.
     */
    RecordedTrace record(std::uint64_t max_refs);

    /** Forwarded to the OS model (MMU page invalidations). */
    void
    setInvalidateHook(OsModel::InvalidateHook hook)
    {
        _os->setInvalidateHook(std::move(hook));
    }

    OsModel &os() { return *_os; }
    Component &app() { return _app; }
    const WorkloadParams &workload() const { return _workload; }
    std::uint32_t appAsid() const { return layout::appAsid; }

    /**
     * Expected non-memory ("Other") stall cycles per instruction for
     * the instruction mix generated so far: the user-app rate applies
     * to application instructions, the kernel rate to everything else.
     */
    double otherCpiSoFar() const;

    /** Fraction of instructions so far executed by the application. */
    double userInstructionFraction() const;

  private:
    void step();
    ServiceRequest drawRequest();

    static CodeRegion appCode(const WorkloadParams &wl);
    static DataBehavior appData(const WorkloadParams &wl);

    WorkloadParams _workload;
    std::unique_ptr<OsModel> _os;
    AddressSpace _appSpace;
    Component _app;
    Rng _rng;

    VectorTraceSink _buffer;
    std::size_t _pos = 0;

    // Event countdowns, in application instructions.
    std::uint64_t _toSyscall;
    std::uint64_t _syscallBurstLeft = 0;
    std::uint64_t _toFrame;
    std::uint64_t _toTimer;
    std::uint64_t _toVm;
    std::uint64_t _bufCursor = 0;
    std::uint64_t _totalInstr = 0;
    std::uint64_t _appInstr = 0;
};

} // namespace oma

#endif // OMA_WORKLOAD_SYSTEM_HH
