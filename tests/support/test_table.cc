/**
 * @file
 * Unit tests for text-table rendering and number formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "support/table.hh"

namespace oma
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer-name", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(out.find("---"), std::string::npos);
    // All lines (header, rule, two rows) share the same width.
    std::istringstream is(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TextTableDeath, RowWidthMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "width mismatch");
}

TEST(Format, Fixed)
{
    EXPECT_EQ(fmtFixed(1.23456, 2), "1.23");
    EXPECT_EQ(fmtFixed(1.0, 3), "1.000");
    EXPECT_EQ(fmtFixed(-0.5, 1), "-0.5");
}

TEST(Format, Grouped)
{
    EXPECT_EQ(fmtGrouped(0), "0");
    EXPECT_EQ(fmtGrouped(999), "999");
    EXPECT_EQ(fmtGrouped(1000), "1,000");
    EXPECT_EQ(fmtGrouped(163438), "163,438");
    EXPECT_EQ(fmtGrouped(1234567890), "1,234,567,890");
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(0.5), "50%");
    EXPECT_EQ(fmtPercent(0.123, 1), "12.3%");
}

TEST(Format, KBytes)
{
    EXPECT_EQ(fmtKBytes(2048), "2-KB");
    EXPECT_EQ(fmtKBytes(32 * 1024), "32-KB");
    EXPECT_EQ(fmtKBytes(100), "100-B");
}

} // namespace
} // namespace oma
