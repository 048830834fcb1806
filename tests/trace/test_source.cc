/**
 * @file
 * Unit tests for trace sources, sinks and filtering.
 */

#include <gtest/gtest.h>

#include "trace/filter.hh"
#include "trace/source.hh"

namespace oma
{
namespace
{

std::vector<MemRef>
makeRefs(int n)
{
    std::vector<MemRef> refs;
    for (int i = 0; i < n; ++i) {
        MemRef r;
        r.vaddr = 0x1000 + 4 * i;
        r.asid = (i % 3 == 0) ? 1 : 2;
        r.mode = (i % 2 == 0) ? Mode::User : Mode::Kernel;
        refs.push_back(r);
    }
    return refs;
}

TEST(VectorTraceSource, ReplaysInOrder)
{
    VectorTraceSource src(makeRefs(10));
    MemRef r;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(src.next(r));
        EXPECT_EQ(r.vaddr, 0x1000u + 4 * i);
    }
    EXPECT_FALSE(src.next(r));
}

TEST(VectorTraceSource, RewindRestarts)
{
    VectorTraceSource src(makeRefs(3));
    MemRef r;
    while (src.next(r)) {
    }
    src.rewind();
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.vaddr, 0x1000u);
}

TEST(VectorTraceSink, Collects)
{
    VectorTraceSink sink;
    MemRef r;
    r.vaddr = 0xabc;
    sink.put(r);
    sink.put(r);
    EXPECT_EQ(sink.refs.size(), 2u);
    EXPECT_EQ(sink.refs[0].vaddr, 0xabcu);
}

TEST(Filter, UserOnlyKeepsOneAddressSpace)
{
    VectorTraceSource src(makeRefs(100));
    FilteredTraceSource filtered = userOnly(src, 1);
    MemRef r;
    int count = 0;
    while (filtered.next(r)) {
        EXPECT_EQ(r.asid, 1u);
        EXPECT_EQ(r.mode, Mode::User);
        ++count;
    }
    // asid 1 at i % 3 == 0 and user mode at i % 2 == 0: i % 6 == 0.
    EXPECT_EQ(count, 17);
}

TEST(Filter, PredicateComposes)
{
    VectorTraceSource src(makeRefs(20));
    FilteredTraceSource even(
        src, [](const MemRef &ref) { return (ref.vaddr & 7) == 0; });
    MemRef r;
    int count = 0;
    while (even.next(r))
        ++count;
    EXPECT_EQ(count, 10);
}

} // namespace
} // namespace oma
