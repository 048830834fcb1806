/**
 * @file
 * Mach 3.0: the multiple-API microkernel structure model.
 *
 * UNIX system calls bounce through a dynamically mapped emulation
 * library in the caller's own address space, become RPCs carried by
 * the Mach kernel, and are served by a user-level (fully mapped) BSD
 * server; display traffic is Mach IPC to the X server with VM-shared
 * frame memory; paging is handled by a user-level external pager.
 * The call path is ~1000 instructions and the return path ~850
 * (Section 4.1), which is what overruns small I-caches, while the
 * extra mapped address spaces and their page-table pages are what
 * load the TLB (Section 4.2).
 */

#ifndef OMA_OS_MACH_HH
#define OMA_OS_MACH_HH

#include <memory>

#include "os/osmodel.hh"

namespace oma
{

/** Structural constants of the Mach model. */
struct MachParams
{
    // Invocation plumbing. Call path = trap + emulCall + kernelSend +
    // serverStubIn ~= 1000 instructions; return path = serverStubOut +
    // kernelReply + emulRet ~= 850 (paper, Section 4.1).
    std::uint64_t trapInstr = 50;
    std::uint64_t emulCallInstr = 200;
    std::uint64_t kernelSendInstr = 600;
    std::uint64_t serverStubInInstr = 150;
    std::uint64_t serverStubOutInstr = 200;
    std::uint64_t kernelReplyInstr = 500;
    std::uint64_t emulRetInstr = 150;

    // Service bodies: both systems derive from 4.2 BSD, so the body
    // lengths match the Ultrix model (Section 4.1: "differences with
    // respect to this service code are minor").
    std::uint64_t svcFileInstr = 2800;
    std::uint64_t svcStatInstr = 700;
    std::uint64_t svcIpcInstr = 1200;

    /**
     * Extra BSD-server work per file operation beyond the common BSD
     * body: mapped-file handling, vm_map manipulation and data-
     * structure upkeep that the monolithic kernel does not pay.
     */
    std::uint64_t serverFileOverheadInstr = 2500;
    /**
     * Payload size at or above which message data moves by
     * out-of-line virtual-memory transfer instead of copying
     * ([Dean91]: "out-of-line (virtual memory) transfers for the
     * expensive case of large messages"). The kernel remaps pages;
     * the receiver touches them lazily.
     */
    std::uint64_t oolThresholdBytes = 8192;

    /**
     * Number of additional small-granularity API servers (naming,
     * authentication, ...) the BSD service is decomposed into
     * ([Black92], discussed in Section 4.1). Each lives in its own
     * mapped address space; services fan out nested RPCs to them.
     */
    unsigned extraApiServers = 0;
    /** Probability a service consults an extra server (when any). */
    double extraServerProb = 0.5;

    /**
     * Probability that a file operation needs a second RPC round
     * (name resolution, default-pager or memory-object traffic) —
     * decomposition overheads Section 4.1 describes.
     */
    double extraRpcProb = 0.5;

    // BSD server footprints (user level, fully mapped).
    std::uint64_t serverCodeFootprint = 48 * 1024;
    std::uint64_t serverWsBytes = 128 * 1024;
    std::uint64_t serverBufBytes = 2 * 1024 * 1024;

    // Kernel IPC footprints.
    std::uint64_t kIpcWsBytes = 64 * 1024;   //!< kseg0 data.
    std::uint64_t kseg2WsBytes = 48 * 1024; //!< mapped ports/pmaps.
    double kseg2Frac = 0.18;

    // Housekeeping.
    std::uint64_t timerInstr = 350;
    std::uint64_t cswitchInstr = 350;
    std::uint64_t pagerInstr = 1500;
    unsigned pagerInvalidations = 6;

    /**
     * Route display frames through the BSD server's socket interface
     * (two RPCs and two copies per frame), as in the system the paper
     * measured. When false, frames travel by Mach IPC directly to X
     * with VM-shared frame memory ([Ginsberg93]; the Bershad-style
     * "avoid RPC with VM sharing" variant the ablation bench studies:
     * it trades I-cache misses for TLB misses).
     */
    bool xViaBsdServer = true;

    // X display server.
    std::uint64_t xCodeFootprint = 40 * 1024;
    std::uint64_t xWsBytes = 96 * 1024;
    std::uint64_t xInstrPerKByte = 100;
    std::uint64_t frameBufferBytes = 1024 * 1024;

    // Data-reference intensity of server/kernel code.
    double svcLoadPerInstr = 0.22;
    double svcStorePerInstr = 0.10;
};

/** The Mach 3.0 structure model. */
class MachModel : public OsModel
{
  public:
    MachModel(std::uint64_t seed, const MachParams &params);

    const char *name() const override { return "Mach"; }
    OsKind kind() const override { return OsKind::Mach; }

    void attachApp(AddressSpace &app_space,
                   const DataBehavior &app_data) override;
    void invokeService(Component &caller, const ServiceRequest &req,
                       TraceSink &sink) override;
    void displayFrame(Component &caller, std::uint64_t bytes,
                      TraceSink &sink) override;
    void timerTick(TraceSink &sink) override;
    void vmActivity(Component &caller, TraceSink &sink) override;

    const MachParams &params() const { return _p; }

  private:
    std::uint64_t svcBodyInstr(ServiceKind kind);
    std::uint64_t serverBufAddr(std::uint64_t file_offset) const;

    /**
     * Move @p bytes from one space to another: a copy loop for small
     * payloads, an out-of-line VM remap (kernel vm_map work plus one
     * kseg2 PTE store per page) for large ones.
     */
    void transfer(AddressSpace &src_space, std::uint64_t src_base,
                  AddressSpace &dst_space, std::uint64_t dst_base,
                  std::uint64_t bytes, TraceSink &sink);

    MachParams _p;
    Rng _rng;
    AddressSpace _serverSpace;
    AddressSpace _pagerSpace;
    Component _trap;   //!< Kernel trap/timer/context-switch paths.
    Component _ipc;    //!< Kernel IPC send/reply paths + copies.
    Component _server; //!< BSD server bodies (user level, mapped).
    Component _x;      //!< X display server.
    Component _pager;  //!< External pager (user level).
    /** Decomposed small-granularity API servers ([Black92]). */
    std::vector<std::unique_ptr<AddressSpace>> _extraSpaces;
    std::vector<std::unique_ptr<Component>> _extraServers;
    /** Emulation library, created by attachApp in the app's space. */
    std::unique_ptr<Component> _emul;

    CodePath _trapPath;
    CodePath _emulCallPath;
    CodePath _emulRetPath;
    CodePath _sendPath;
    CodePath _replyPath;
    CodePath _stubInPath;
    CodePath _stubOutPath;
    CodePath _xStubPath;
    CodePath _cswitchPath;
    CodePath _timerPath;

    std::uint64_t _fileOffset = 0;
    std::uint64_t _fbCursor = 0;
    std::uint64_t _frameCursor = 0;
    std::uint64_t _appStreamBytes = 0;
};

} // namespace oma

#endif // OMA_OS_MACH_HH
