/**
 * @file
 * Abstract producers and consumers of memory-reference streams.
 */

#ifndef OMA_TRACE_SOURCE_HH
#define OMA_TRACE_SOURCE_HH

#include <cstdint>
#include <vector>

#include "trace/memref.hh"

namespace oma
{

/**
 * A pull-based producer of memory references. Workload generators,
 * filters and samplers implement this interface; simulators consume
 * it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     *
     * @param ref Filled in on success.
     * @retval true a reference was produced.
     * @retval false the stream is exhausted.
     */
    virtual bool next(MemRef &ref) = 0;
};

/** A push-based consumer of memory references. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one reference. */
    virtual void put(const MemRef &ref) = 0;
};

/** An in-memory trace, convenient for tests and small experiments. */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<MemRef> refs)
        : _refs(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (_pos >= _refs.size())
            return false;
        ref = _refs[_pos++];
        return true;
    }

    /** Rewind to the start of the trace. */
    void rewind() { _pos = 0; }

  private:
    std::vector<MemRef> _refs;
    std::size_t _pos = 0;
};

/** A sink that appends into a vector. */
class VectorTraceSink : public TraceSink
{
  public:
    void put(const MemRef &ref) override { refs.push_back(ref); }

    std::vector<MemRef> refs;
};

} // namespace oma

#endif // OMA_TRACE_SOURCE_HH
