/**
 * @file
 * Unit tests for the MemRef record.
 */

#include <gtest/gtest.h>

#include "trace/memref.hh"

namespace oma
{
namespace
{

TEST(MemRef, KindPredicates)
{
    MemRef r;
    r.kind = RefKind::IFetch;
    EXPECT_TRUE(r.isFetch());
    EXPECT_FALSE(r.isData());
    r.kind = RefKind::Load;
    EXPECT_TRUE(r.isLoad());
    EXPECT_TRUE(r.isData());
    EXPECT_FALSE(r.isStore());
    r.kind = RefKind::Store;
    EXPECT_TRUE(r.isStore());
    EXPECT_TRUE(r.isData());
}

TEST(MemRef, ModePredicate)
{
    MemRef r;
    r.mode = Mode::Kernel;
    EXPECT_TRUE(r.isKernel());
    r.mode = Mode::User;
    EXPECT_FALSE(r.isKernel());
}

TEST(MemRef, Defaults)
{
    MemRef r;
    EXPECT_EQ(r.vaddr, 0u);
    EXPECT_EQ(r.asid, 0u);
    EXPECT_TRUE(r.mapped);
    EXPECT_TRUE(r.isFetch());
}

} // namespace
} // namespace oma
