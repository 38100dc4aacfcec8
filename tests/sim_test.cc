#include <gtest/gtest.h>

#include "common/string_util.h"
#include "sim/bandwidth.h"
#include "sim/network.h"

namespace easia::sim {
namespace {

constexpr double kDay = 10 * 3600;      // 10:00, inside the day window
constexpr double kEvening = 20 * 3600;  // 20:00, outside it
constexpr uint64_t kSmall = 85 * kMegabyte;
constexpr uint64_t kLarge = 544 * kMegabyte;

TEST(BandwidthScheduleTest, ConstantRate) {
  BandwidthSchedule s = BandwidthSchedule::Constant(2.0);
  EXPECT_DOUBLE_EQ(s.RateAt(0), 2.0);
  EXPECT_DOUBLE_EQ(s.RateAt(123456), 2.0);
}

TEST(BandwidthScheduleTest, WindowsApplyByTimeOfDay) {
  BandwidthSchedule s(1.94);
  s.AddWindow(8, 18, 0.37);
  EXPECT_DOUBLE_EQ(s.RateAt(kDay), 0.37);
  EXPECT_DOUBLE_EQ(s.RateAt(kEvening), 1.94);
  EXPECT_DOUBLE_EQ(s.RateAt(86400 + kDay), 0.37);  // repeats daily
}

TEST(BandwidthScheduleTest, NextBoundary) {
  BandwidthSchedule s(1.0);
  s.AddWindow(8, 18, 0.5);
  EXPECT_DOUBLE_EQ(s.NextBoundary(0), 8 * 3600.0);
  EXPECT_DOUBLE_EQ(s.NextBoundary(kDay), 18 * 3600.0);
  // After the last window edge of the day, the next (conservative)
  // boundary is midnight.
  EXPECT_DOUBLE_EQ(s.NextBoundary(kEvening), 86400.0);
}

// The paper's measured table, reproduced exactly (file sizes in decimal MB;
// transfer time = size*8 / rate).
struct PaperRow {
  const char* when;
  bool to_southampton;
  double mbps;
  uint64_t bytes;
  const char* expected;
};

// The test's listed name carries this text. Without it googletest prints the
// struct's raw bytes, pointers included, which change from process to process.
void PrintTo(const PaperRow& row, std::ostream* os) {
  *os << row.when
      << (row.to_southampton ? "_to_southampton_" : "_from_southampton_")
      << row.bytes / kMegabyte << "MB";
}

class PaperTableTest : public ::testing::TestWithParam<PaperRow> {};

TEST_P(PaperTableTest, MatchesPaperCell) {
  const PaperRow& row = GetParam();
  BandwidthSchedule schedule = BandwidthSchedule::Constant(row.mbps);
  Result<double> seconds = TransferDuration(schedule, row.bytes, 0.0);
  ASSERT_TRUE(seconds.ok());
  EXPECT_EQ(HumanDuration(*seconds), row.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PaperTableTest,
    ::testing::Values(
        PaperRow{"day", true, 0.25, kSmall, "45m20s"},
        PaperRow{"day", true, 0.25, kLarge, "4h50m08s"},
        PaperRow{"day", false, 0.37, kSmall, "30m38s"},
        PaperRow{"day", false, 0.37, kLarge, "3h16m02s"},
        PaperRow{"evening", true, 0.58, kSmall, "19m32s"},
        PaperRow{"evening", true, 0.58, kLarge, "2h05m03s"},
        PaperRow{"evening", false, 1.94, kSmall, "5m51s"},
        PaperRow{"evening", false, 1.94, kLarge, "37m23s"}));

TEST(TransferDurationTest, IntegratesAcrossRateChange) {
  // 1 Mbit/s until hour 1, then 2 Mbit/s. 900 Mbit needs 3600s at 1 Mbit/s
  // (ends exactly at the boundary)... make it cross: 1200 Mbit:
  // 3600 s * 1 Mbit = 3600 Mbit? No: 1 Mbit/s * 3600 s = 3600 Mbit.
  // Use small numbers: window [0h,1h) at 1 Mbit/s; rest 2 Mbit/s.
  BandwidthSchedule s(2.0);
  s.AddWindow(0, 1, 1.0);
  // 4500 Mbit: first hour moves 3600 Mbit, remaining 900 Mbit at 2 Mbit/s
  // takes 450 s -> total 4050 s.
  uint64_t bytes = 4500ull * 1000 * 1000 / 8;
  Result<double> seconds = TransferDuration(s, bytes, 0.0);
  ASSERT_TRUE(seconds.ok());
  EXPECT_NEAR(*seconds, 4050.0, 1e-6);
}

TEST(TransferDurationTest, LatencyAdds) {
  BandwidthSchedule s = BandwidthSchedule::Constant(8.0);  // 1 MB/s
  Result<double> seconds = TransferDuration(s, 1000 * 1000, 0.0, 0.25);
  ASSERT_TRUE(seconds.ok());
  EXPECT_NEAR(*seconds, 1.25, 1e-9);
}

TEST(TransferDurationTest, ZeroBandwidthScheduleFails) {
  BandwidthSchedule s(0.0);
  EXPECT_FALSE(TransferDuration(s, 1000, 0.0).ok());
}

TEST(TransferDurationTest, ZeroBytesIsFree) {
  BandwidthSchedule s = BandwidthSchedule::Constant(1.0);
  EXPECT_DOUBLE_EQ(*TransferDuration(s, 0, 0.0), 0.0);
}

class TransferMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(TransferMonotonicityTest, MoreBytesNeverFaster) {
  BandwidthSchedule s(1.94);
  s.AddWindow(8, 18, 0.25);
  double start = GetParam() * 3600.0;
  double prev = 0;
  for (uint64_t mb = 1; mb <= 1024; mb *= 2) {
    Result<double> t = TransferDuration(s, mb * kMegabyte, start);
    ASSERT_TRUE(t.ok());
    EXPECT_GE(*t, prev);
    prev = *t;
  }
}

INSTANTIATE_TEST_SUITE_P(StartHours, TransferMonotonicityTest,
                         ::testing::Values(0.0, 7.9, 8.0, 12.0, 17.99, 23.0));

TEST(PaperSchedulesTest, AsymmetryMatchesPaper) {
  // From Southampton is faster than to Southampton at all hours.
  BandwidthSchedule to = ToSouthamptonSchedule();
  BandwidthSchedule from = FromSouthamptonSchedule();
  for (double hour = 0.5; hour < 24; hour += 1.0) {
    EXPECT_GT(from.RateAt(hour * 3600), to.RateAt(hour * 3600)) << hour;
  }
  // Evening is faster than day in both directions.
  EXPECT_GT(to.RateAt(kEvening), to.RateAt(kDay));
  EXPECT_GT(from.RateAt(kEvening), from.RateAt(kDay));
}

TEST(NetworkTest, TransferAdvancesClockAndMeters) {
  Network net(kEvening);
  net.AddHost({"a", 50, 4});
  net.AddHost({"b", 50, 4});
  net.AddLink("a", "b", BandwidthSchedule::Constant(8.0), 0.0);  // 1 MB/s
  Result<TransferRecord> rec = net.Transfer("a", "b", 5 * kMegabyte);
  ASSERT_TRUE(rec.ok());
  EXPECT_NEAR(rec->duration_seconds, 5.0, 1e-9);
  EXPECT_NEAR(net.Now(), kEvening + 5.0, 1e-9);
  EXPECT_EQ(net.LinkTraffic("a", "b"), 5 * kMegabyte);
  EXPECT_EQ(net.LinkTraffic("b", "a"), 0u);
  EXPECT_EQ(net.TotalTraffic(), 5 * kMegabyte);
  EXPECT_EQ(net.history().size(), 1u);
}

TEST(NetworkTest, MissingLinkOrHostFails) {
  Network net;
  net.AddHost({"a", 50, 4});
  net.AddHost({"b", 50, 4});
  EXPECT_FALSE(net.Transfer("a", "b", 1).ok());   // no link
  EXPECT_FALSE(net.Transfer("a", "zz", 1).ok());  // unknown host
}

TEST(NetworkTest, LocalTransferIsFree) {
  Network net;
  net.AddHost({"a", 50, 4});
  Result<TransferRecord> rec = net.Transfer("a", "a", 1000000);
  ASSERT_TRUE(rec.ok());
  EXPECT_DOUBLE_EQ(rec->duration_seconds, 0.0);
  EXPECT_EQ(net.TotalTraffic(), 0u);
}

TEST(NetworkTest, ProcessingTime) {
  Network net;
  HostSpec host;
  host.name = "fs";
  host.processing_mb_per_sec = 50;
  net.AddHost(host);
  EXPECT_NEAR(*net.ProcessingTime("fs", 100 * kMegabyte), 2.0, 1e-9);
  EXPECT_FALSE(net.ProcessingTime("nope", 1).ok());
}

TEST(NetworkTest, ResetMetersClears) {
  Network net;
  net.AddHost({"a", 50, 4});
  net.AddHost({"b", 50, 4});
  net.AddSymmetricLink("a", "b", BandwidthSchedule::Constant(1.0));
  ASSERT_TRUE(net.Transfer("a", "b", 1000).ok());
  net.ResetMeters();
  EXPECT_EQ(net.TotalTraffic(), 0u);
  EXPECT_TRUE(net.history().empty());
}

}  // namespace
}  // namespace easia::sim
