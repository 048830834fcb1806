/**
 * @file
 * Operating-system structure models.
 *
 * The paper's central observation is structural: the path from a
 * service invocation to the service code, and the address spaces that
 * path crosses, differ radically between a single-API system (Ultrix:
 * one kernel trap, service code in unmapped kseg0) and a multi-API
 * microkernel system (Mach: emulation library in the caller's space,
 * an RPC through the kernel, and a user-level — fully mapped — BSD
 * server). OsModel is the interface through which workloads invoke
 * services; UltrixModel and MachModel emit the corresponding
 * reference streams.
 */

#ifndef OMA_OS_OSMODEL_HH
#define OMA_OS_OSMODEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "os/component.hh"
#include "os/layout.hh"

namespace oma
{

/** Which operating-system structure to model. */
enum class OsKind
{
    Ultrix,
    Mach,
};

const char *osKindName(OsKind kind);

/** Classes of OS service the workloads invoke. */
enum class ServiceKind
{
    FileRead,
    FileWrite,
    Stat, //!< Small, no payload (stat/gettimeofday/select...).
    Ipc,  //!< Small message (pipes, sockets control traffic).
};

/** One service invocation by the application. */
struct ServiceRequest
{
    ServiceKind kind = ServiceKind::Stat;
    std::uint64_t bytes = 0;        //!< Payload size.
    std::uint64_t userBufferVa = 0; //!< Caller-side buffer.
};

/**
 * Base class for OS structure models. Owns the kernel and X-server
 * address spaces and components common to both systems.
 */
class OsModel
{
  public:
    using InvalidateHook = std::function<void(
        std::uint64_t vpn, std::uint32_t asid, bool global)>;

    explicit OsModel(std::uint64_t seed);
    virtual ~OsModel() = default;

    virtual const char *name() const = 0;
    virtual OsKind kind() const = 0;

    /** Emit the full reference stream of one service invocation. */
    virtual void invokeService(Component &caller,
                               const ServiceRequest &req,
                               TraceSink &sink) = 0;

    /** Deliver one display frame from the caller to the X server. */
    virtual void displayFrame(Component &caller, std::uint64_t bytes,
                              TraceSink &sink) = 0;

    /** Periodic clock interrupt. */
    virtual void timerTick(TraceSink &sink) = 0;

    /**
     * Background VM activity (pageout daemon / external pager); may
     * invalidate pages via the invalidate hook.
     */
    virtual void vmActivity(Component &caller, TraceSink &sink) = 0;

    /**
     * Bind the application to this OS instance. Mach maps the
     * emulation library into the app's space and arranges VM sharing
     * of the frame-stream region with the X server; Ultrix needs no
     * setup. Must be called once before invokeService.
     */
    virtual void attachApp(AddressSpace &app_space,
                           const DataBehavior &app_data);

    /** Register the machine's page-invalidation callback. */
    void setInvalidateHook(InvalidateHook hook)
    {
        _invalidate = std::move(hook);
    }

  protected:
    /** Invalidate a page in the machine's MMU (no-op when unhooked). */
    void
    invalidatePage(std::uint64_t vpn, std::uint32_t asid, bool global)
    {
        if (_invalidate)
            _invalidate(vpn, asid, global);
    }

    /** Pick a victim page inside a region and invalidate it. */
    void invalidateRandomPage(Rng &rng, std::uint64_t base,
                              std::uint64_t bytes, std::uint32_t asid);

    std::uint64_t _seed;
    AddressSpace _kernelSpace;
    AddressSpace _xSpace;
    InvalidateHook _invalidate;
};

/** Factory for the two models. */
std::unique_ptr<OsModel> makeOsModel(OsKind kind, std::uint64_t seed);

} // namespace oma

#endif // OMA_OS_OSMODEL_HH
