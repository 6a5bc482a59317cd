// Pins the shared deployment-flag layer (tools/deployment_flags.h): the
// Table-3 defaults must be exactly SystemConfig::facebook(), flags must
// override individual fields, and the bench banner must be generated from
// the same constants.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "tools/deployment_flags.h"

namespace mclat {
namespace {

tools::CliArgs make_args(std::vector<std::string> argv_strings) {
  static std::vector<std::string> storage;  // keeps c_str()s alive
  storage = std::move(argv_strings);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("mclat"));
  for (auto& s : storage) argv.push_back(s.data());
  return tools::CliArgs(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(DeploymentFlags, DefaultsAreExactlyFacebook) {
  tools::CliArgs args = make_args({});
  const core::SystemConfig got = tools::deployment_config_from(args);
  const core::SystemConfig fb = core::SystemConfig::facebook();
  EXPECT_EQ(got.servers, fb.servers);
  EXPECT_DOUBLE_EQ(got.total_key_rate, fb.total_key_rate);
  EXPECT_DOUBLE_EQ(got.concurrency_q, fb.concurrency_q);
  EXPECT_DOUBLE_EQ(got.burst_xi, fb.burst_xi);
  EXPECT_DOUBLE_EQ(got.service_rate, fb.service_rate);
  EXPECT_EQ(got.keys_per_request, fb.keys_per_request);
  EXPECT_DOUBLE_EQ(got.miss_ratio, fb.miss_ratio);
  EXPECT_DOUBLE_EQ(got.db_service_rate, fb.db_service_rate);
  EXPECT_DOUBLE_EQ(got.network_latency, fb.network_latency);
  EXPECT_TRUE(got.load_shares.empty());  // balanced by default
  EXPECT_FALSE(got.db_queueing);
}

TEST(DeploymentFlags, Table3ConstantsMatchFacebookConfig) {
  // The kTable3 literals themselves (not just the parse path) must agree
  // with SystemConfig::facebook(), after unit conversion.
  const core::SystemConfig fb = core::SystemConfig::facebook();
  EXPECT_DOUBLE_EQ(tools::kTable3.servers, static_cast<double>(fb.servers));
  EXPECT_DOUBLE_EQ(tools::kTable3.kps * 1000.0 * tools::kTable3.servers,
                   fb.total_key_rate);
  EXPECT_DOUBLE_EQ(tools::kTable3.q, fb.concurrency_q);
  EXPECT_DOUBLE_EQ(tools::kTable3.xi, fb.burst_xi);
  EXPECT_DOUBLE_EQ(tools::kTable3.mus * 1000.0, fb.service_rate);
  EXPECT_DOUBLE_EQ(tools::kTable3.n,
                   static_cast<double>(fb.keys_per_request));
  EXPECT_DOUBLE_EQ(tools::kTable3.r, fb.miss_ratio);
  EXPECT_DOUBLE_EQ(tools::kTable3.mud * 1000.0, fb.db_service_rate);
  EXPECT_DOUBLE_EQ(tools::kTable3.net_us * 1e-6, fb.network_latency);
}

TEST(DeploymentFlags, FlagsOverrideDefaults) {
  tools::CliArgs args =
      make_args({"--servers", "6", "--kps", "50", "--r", "0.02"});
  const core::SystemConfig got = tools::deployment_config_from(args);
  EXPECT_EQ(got.servers, 6u);
  EXPECT_DOUBLE_EQ(got.total_key_rate, 50.0 * 1000.0 * 6.0);
  EXPECT_DOUBLE_EQ(got.miss_ratio, 0.02);
  // Untouched fields keep Table-3 values.
  EXPECT_DOUBLE_EQ(got.concurrency_q, tools::kTable3.q);
}

TEST(DeploymentFlags, SkewFlagBuildsLoadShares) {
  tools::CliArgs args = make_args({"--p1", "0.4"});
  const core::SystemConfig got = tools::deployment_config_from(args);
  ASSERT_EQ(got.load_shares.size(), got.servers);
  EXPECT_DOUBLE_EQ(got.load_shares.front(), 0.4);
}

TEST(DeploymentFlags, BannerIsGeneratedFromTable3) {
  const std::string b = tools::table3_banner();
  EXPECT_NE(b.find("lambda=62.5Kps"), std::string::npos) << b;
  EXPECT_NE(b.find("q=0.1"), std::string::npos) << b;
  EXPECT_NE(b.find("xi=0.15"), std::string::npos) << b;
  EXPECT_NE(b.find("muS=80Kps"), std::string::npos) << b;
  EXPECT_NE(b.find("N=150"), std::string::npos) << b;
  EXPECT_NE(b.find("r=1%"), std::string::npos) << b;
}

TEST(DeploymentFlags, ShardJobsFlagFlowsIntoCommonConfig) {
  tools::CliArgs args = make_args({"--shard-jobs", "4"});
  cluster::CommonConfig common;
  tools::common_sim_flags_from(args, common);
  EXPECT_EQ(common.shard_jobs, 4u);
}

TEST(DeploymentFlags, ShardJobsDefaultsToTheSerialLoop) {
  tools::CliArgs args = make_args({});
  cluster::CommonConfig common;
  tools::common_sim_flags_from(args, common);
  EXPECT_EQ(common.shard_jobs, 1u);
}

// These three flags are converted to unsigned types; a negative value must
// be a usage error naming the flag, never an undefined conversion.
TEST(DeploymentFlagsDeath, NegativeUnsignedFlagsAreRejected) {
  for (const std::string flag : {"seed", "cache-mb", "keytable-budget-mb"}) {
    EXPECT_EXIT(
        {
          tools::CliArgs args = make_args({"--" + flag, "-1"});
          cluster::CommonConfig common;
          tools::common_sim_flags_from(args, common);
        },
        ::testing::ExitedWithCode(2), "--" + flag + " must be non-negative")
        << flag;
  }
}

}  // namespace
}  // namespace mclat
