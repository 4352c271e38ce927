#include "src/atropos/detector.h"

#include <gtest/gtest.h>

namespace atropos {
namespace {

AtroposConfig BaseConfig() {
  AtroposConfig cfg;
  cfg.calibration_windows = 3;
  cfg.slo_latency_increase = 0.20;
  return cfg;
}

using Signal = OverloadDetector::Signal;

TEST(DetectorTest, CalibratesFromMedianOfEarlyWindows) {
  OverloadDetector det(BaseConfig());
  EXPECT_FALSE(det.calibrated());
  EXPECT_EQ(det.OnWindow({100, 1000}), Signal::kCalibrating);
  EXPECT_EQ(det.OnWindow({100, 5000}), Signal::kCalibrating);  // startup spike
  EXPECT_EQ(det.OnWindow({100, 1100}), Signal::kCalibrating);
  EXPECT_TRUE(det.calibrated());
  EXPECT_EQ(det.baseline_p99(), 1100u);  // median of {1000, 5000, 1100}
  EXPECT_EQ(det.slo_latency(), 1320u);
}

TEST(DetectorTest, ExplicitBaselineSkipsCalibration) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 2000;
  OverloadDetector det(cfg);
  EXPECT_TRUE(det.calibrated());
  EXPECT_EQ(det.slo_latency(), 2400u);
}

TEST(DetectorTest, EmptyWindowsDoNotCalibrate) {
  OverloadDetector det(BaseConfig());
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(det.OnWindow({0, 0}), Signal::kCalibrating);
  }
  EXPECT_FALSE(det.calibrated());
}

TEST(DetectorTest, NormalWhileUnderSlo) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  EXPECT_EQ(det.OnWindow({100, 1100}), Signal::kNormal);
  EXPECT_EQ(det.OnWindow({120, 1200}), Signal::kNormal);  // exactly at SLO
}

TEST(DetectorTest, LatencyUpThroughputFlatIsSuspectedOverload) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  det.OnWindow({100, 1000});
  det.OnWindow({100, 1000});
  // Latency doubles, throughput stays at 100 -> suspected resource overload.
  EXPECT_EQ(det.OnWindow({100, 2000}), Signal::kSuspectedOverload);
}

TEST(DetectorTest, LatencyUpThroughputGrowingIsDemandOverload) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  det.OnWindow({100, 1000});
  // Throughput grows 50% along with latency: demand, not resource, overload.
  EXPECT_EQ(det.OnWindow({150, 2000}), Signal::kDemandOverload);
}

TEST(DetectorTest, CompleteStallIsSuspectedOverload) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  det.OnWindow({100, 1000, 0});
  // No completions and overdue in-flight requests: the strongest signal.
  EXPECT_EQ(det.OnWindow({0, 0, 3}), Signal::kSuspectedOverload);
  // No completions but nothing in flight is just an idle window.
  EXPECT_EQ(det.OnWindow({0, 0, 0}), Signal::kNormal);
}

TEST(DetectorTest, OverdueConvoyIsSuspectedDespiteHealthySurvivors) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  det.OnWindow({100, 1000, 0});
  // Fast survivors keep p99 healthy, but a convoy of overdue requests is a
  // partial stall.
  EXPECT_EQ(det.OnWindow({60, 1000, 15}), Signal::kSuspectedOverload);
  // A single long-running query is not a stall.
  EXPECT_EQ(det.OnWindow({60, 1000, 1}), Signal::kNormal);
}

TEST(DetectorTest, ThroughputDropWithHighLatencyIsSuspected) {
  AtroposConfig cfg = BaseConfig();
  cfg.baseline_p99 = 1000;
  OverloadDetector det(cfg);
  det.OnWindow({200, 1000});
  EXPECT_EQ(det.OnWindow({50, 3000}), Signal::kSuspectedOverload);
}

}  // namespace
}  // namespace atropos
