// Tests for the statistics toolkit and table/format helpers used by the
// benchmark harnesses.
#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace atm {
namespace {

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(geomean({1.0, -1.0}), 0.0);  // undefined -> signalled as 0
}

TEST(TablePrinter, AlignsAndContainsCells) {
  TablePrinter t({"Benchmark", "Speedup"});
  t.add_row({"Blackscholes", "5.03x"});
  t.add_separator();
  t.add_row({"geomean", "1.40x"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Blackscholes"), std::string::npos);
  EXPECT_NE(out.find("5.03x"), std::string::npos);
  EXPECT_NE(out.find("geomean"), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TablePrinter, ShortRowsPad) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.str().find("only"), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.1234), "12.3%");
  EXPECT_EQ(fmt_speedup(2.5), "2.50x");
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(fmt_bytes(5ull << 20), "5.0 MiB");
}

TEST(AsciiBar, Scales) {
  EXPECT_EQ(ascii_bar(0.0, 10.0, 10), std::string(10, ' '));
  EXPECT_EQ(ascii_bar(10.0, 10.0, 10), std::string(10, '#'));
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10).substr(0, 5), "#####");
  EXPECT_EQ(ascii_bar(20.0, 10.0, 4), "####");  // clamped
}

}  // namespace
}  // namespace atm
