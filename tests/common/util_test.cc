#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace entmatcher {
namespace {

// ---- MemoryTracker ---------------------------------------------------------

TEST(MemoryTrackerTest, AddSubAndPeak) {
  MemoryTracker& t = MemoryTracker::Global();
  const size_t base = t.current_bytes();
  t.ResetPeak();
  t.Add(1000);
  EXPECT_EQ(t.current_bytes(), base + 1000);
  EXPECT_GE(t.peak_bytes(), base + 1000);
  t.Add(500);
  t.Sub(1500);
  EXPECT_EQ(t.current_bytes(), base);
  EXPECT_GE(t.peak_bytes(), base + 1500);
  t.ResetPeak();
  EXPECT_EQ(t.peak_bytes(), t.current_bytes());
}

TEST(MemoryTrackerTest, ScopedTrackedBytes) {
  MemoryTracker& t = MemoryTracker::Global();
  const size_t base = t.current_bytes();
  {
    ScopedTrackedBytes scope(4096);
    EXPECT_EQ(t.current_bytes(), base + 4096);
  }
  EXPECT_EQ(t.current_bytes(), base);
}

// ---- string_util ------------------------------------------------------------

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");

  parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");

  parts = SplitString("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \r\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
  EXPECT_EQ(FormatDouble(-1.5, 0), "-2");  // round-half-even via printf
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(5ull * 1024 * 1024), "5.0 MB");
  EXPECT_EQ(FormatBytes(3ull * 1024 * 1024 * 1024), "3.0 GB");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
}

TEST(StringUtilTest, ParseUint64AcceptsDigitsOnlyUpToTheMax) {
  uint64_t value = 7;
  ASSERT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  ASSERT_TRUE(ParseUint64("007", &value));
  EXPECT_EQ(value, 7u);
  for (const char* bad : {"", "-1", "-5", "+3", " 7", "7 ", "1e3", "0x10",
                          "18446744073709551616", "18446744073709551617",
                          "99999999999999999999"}) {
    value = 42;
    EXPECT_FALSE(ParseUint64(bad, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 42u) << "'" << bad << "' wrote the output";
  }
}

// ---- TablePrinter -----------------------------------------------------------

TEST(TablePrinterTest, FormatsAlignedTable) {
  TablePrinter t({"Model", "F1"});
  t.AddRow({"DInf", "0.605"});
  t.AddRow({"CSLS", "0.7"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| Model |"), std::string::npos);
  EXPECT_NE(out.find("| DInf  |"), std::string::npos);
  EXPECT_NE(out.find("0.605"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"A", "B", "C"});
  t.AddRow({"x"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| x |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRows) {
  TablePrinter t({"A"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  const std::string out = t.ToString();
  // 3 border lines + 1 separator = 5 '+--+' lines total for 1 column.
  size_t lines = 0;
  for (char c : out) lines += (c == '\n');
  EXPECT_EQ(lines, 7u);  // border, header, border, row, sep, row, border
}

// ---- Timer ---------------------------------------------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
  // A restart moves the start point to now: a timer started just before it
  // has run at least as long, however slowly this process is scheduled.
  const Timer started_before;
  timer.Restart();
  const double since_restart = timer.ElapsedSeconds();
  EXPECT_LE(since_restart, started_before.ElapsedSeconds());
}

}  // namespace
}  // namespace entmatcher
