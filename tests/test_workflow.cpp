// Tests for the E2EaW workflow substrate: transfer with failure recovery,
// archive registry with integrity metadata, ingestion model, and the
// stage pipeline.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "fault/injector.hpp"
#include "util/error.hpp"
#include "util/retry.hpp"
#include "workflow/archive.hpp"
#include "workflow/e2eaw.hpp"
#include "workflow/transfer.hpp"

namespace awp::workflow {
namespace {

class WorkflowTest : public ::testing::Test {
 protected:
  WorkflowTest() {
    root_ = std::filesystem::temp_directory_path() /
            ("awp_wf_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    src_ = root_ / "src";
    dst_ = root_ / "dst";
    std::filesystem::create_directories(src_);
    std::filesystem::create_directories(dst_);
  }
  ~WorkflowTest() override { std::filesystem::remove_all(root_); }

  void makeFile(const std::string& name, std::size_t bytes,
                unsigned char fill) {
    std::ofstream out(src_ / name, std::ios::binary);
    std::vector<char> data(bytes, static_cast<char>(fill));
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::filesystem::path root_, src_, dst_;
};

TEST_F(WorkflowTest, CleanTransferVerifies) {
  makeFile("a.bin", 3 << 20, 0x11);
  makeFile("b.bin", 100, 0x22);
  TransferConfig config;
  TransferChannel channel(config);
  const auto report =
      channel.transfer(src_.string(), dst_.string(), {"a.bin", "b.bin"});
  EXPECT_TRUE(report.allVerified);
  EXPECT_EQ(report.filesMoved, 2);
  EXPECT_EQ(report.bytesMoved, (3u << 20) + 100u);
  EXPECT_EQ(report.chunksFailed, 0u);
  EXPECT_TRUE(report.records.empty());
  // ~200 MB/s model: 3 MiB in ~15 ms of simulated time.
  EXPECT_NEAR(report.simulatedSeconds,
              static_cast<double>(report.bytesMoved) / 200e6, 1e-3);
}

TEST_F(WorkflowTest, FailureInjectionRecovers) {
  makeFile("big.bin", 8 << 20, 0x5a);
  TransferConfig config;
  config.chunkFailureProb = 0.3;
  config.seed = 99;
  TransferChannel channel(config);
  const auto report =
      channel.transfer(src_.string(), dst_.string(), {"big.bin"});
  // Failures happened, every one was recovered, and the data still
  // verifies (the §III.I automatic recovery and retransfer).
  EXPECT_GT(report.chunksFailed, 0u);
  EXPECT_TRUE(report.allVerified);
  for (const auto& rec : report.records) EXPECT_TRUE(rec.recovered);
  // Retries cost simulated time beyond the clean transfer.
  EXPECT_GT(report.simulatedSeconds,
            static_cast<double>(report.bytesMoved) / 200e6);
}

TEST_F(WorkflowTest, InjectedChunkFaultIsRetriedAndVerifies) {
  makeFile("c.bin", 1 << 20, 0x3c);
  // An externally injected in-flight loss at the "transfer.chunk" hook:
  // the bounded retry policy must recover it like a modeled failure.
  fault::FaultPlan plan;
  plan.transientIoError("transfer.chunk", /*rank=*/-1, /*occurrence=*/1);
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedInjection scoped(injector);

  TransferConfig config;
  TransferChannel channel(config);
  const auto report =
      channel.transfer(src_.string(), dst_.string(), {"c.bin"});
  EXPECT_EQ(injector.faultsInjected(), 1u);
  EXPECT_GE(report.chunksFailed, 1u);
  EXPECT_TRUE(report.allVerified);
  for (const auto& rec : report.records) EXPECT_TRUE(rec.recovered);
}

TEST_F(WorkflowTest, ArchiveIngestAndVerify) {
  makeFile("data.bin", 4096, 0x77);
  ArchiveRegistry registry;
  registry.ingestFile((src_ / "data.bin").string(), "m8/surface",
                      "data.bin", 2);
  ASSERT_TRUE(registry.contains("data.bin"));
  const auto& e = registry.entry("data.bin");
  EXPECT_EQ(e.bytes, 4096u);
  EXPECT_EQ(e.replicas, 2);
  EXPECT_EQ(e.md5Hex.size(), 32u);
  EXPECT_TRUE(registry.verify("data.bin", (src_ / "data.bin").string()));

  // Tamper with a copy: verification must fail.
  std::filesystem::copy(src_ / "data.bin", dst_ / "data.bin");
  {
    std::ofstream out(dst_ / "data.bin",
                      std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(100);
    out.put('X');
  }
  EXPECT_FALSE(registry.verify("data.bin", (dst_ / "data.bin").string()));
  EXPECT_THROW((void)registry.entry("missing"), Error);
}

TEST_F(WorkflowTest, CollectionsListAndTotals) {
  makeFile("x.bin", 10, 1);
  makeFile("y.bin", 20, 2);
  makeFile("z.bin", 30, 3);
  ArchiveRegistry registry;
  registry.ingestFile((src_ / "x.bin").string(), "colA", "x.bin");
  registry.ingestFile((src_ / "y.bin").string(), "colA", "y.bin");
  registry.ingestFile((src_ / "z.bin").string(), "colB", "z.bin");
  EXPECT_EQ(registry.listCollection("colA").size(), 2u);
  EXPECT_EQ(registry.listCollection("colB").size(), 1u);
  EXPECT_EQ(registry.totalBytes(), 60u);
}

TEST(IngestionModel, PiputBeatsSingleStreamByTenfold) {
  // §III.I: PIPUT reaches ~177 MB/s, "more than ten times faster than
  // direct use of single iRODS iPUT".
  const IngestionModel model;
  const double single = model.aggregateRate(1);
  const double parallel = model.aggregateRate(16);
  EXPECT_GT(parallel / single, 10.0);
  EXPECT_NEAR(parallel, 180e6, 10e6);
  // Saturates at the backend cap.
  EXPECT_DOUBLE_EQ(model.aggregateRate(64), model.aggregateRate(100));
  // 200 TB collection at PIPUT rates: days, not months.
  const double seconds = model.ingestSeconds(200e12, 16);
  EXPECT_GT(seconds / 86400.0, 5.0);
  EXPECT_LT(seconds / 86400.0, 30.0);
}

TEST(Pipeline, RunsStagesInOrder) {
  Pipeline p;
  std::vector<int> order;
  p.addStage("one", [&] {
    order.push_back(1);
    return "ok1";
  });
  p.addStage("two", [&] {
    order.push_back(2);
    return "ok2";
  });
  EXPECT_TRUE(p.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_TRUE(p.results()[0].ok);
  EXPECT_EQ(p.results()[1].detail, "ok2");
}

TEST(Pipeline, StopsAtFirstFailure) {
  Pipeline p;
  bool thirdRan = false;
  p.addStage("gen", [] { return "ok"; });
  p.addStage("boom", []() -> std::string {
    throw Error("stage failed");
  });
  p.addStage("after", [&] {
    thirdRan = true;
    return "never";
  });
  EXPECT_FALSE(p.run());
  EXPECT_FALSE(thirdRan);
  ASSERT_EQ(p.results().size(), 3u);
  EXPECT_TRUE(p.results()[0].ok);
  EXPECT_FALSE(p.results()[1].ok);
  EXPECT_EQ(p.results()[1].detail, "stage failed");
  EXPECT_FALSE(p.results()[2].ran);
}

TEST(Pipeline, RerunnableAfterFailure) {
  Pipeline p;
  int attempts = 0;
  p.addStage("flaky", [&]() -> std::string {
    ++attempts;
    if (attempts < 2) throw Error("first try fails");
    return "recovered";
  });
  EXPECT_FALSE(p.run());
  EXPECT_TRUE(p.run());
  EXPECT_EQ(p.results()[0].detail, "recovered");
}

TEST(Pipeline, NonStandardThrowIsCaughtAndReported) {
  Pipeline p;
  bool afterRan = false;
  p.addStage("weird", []() -> std::string { throw 42; });
  p.addStage("after", [&] {
    afterRan = true;
    return "never";
  });
  EXPECT_FALSE(p.run());
  EXPECT_FALSE(afterRan);
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_FALSE(p.results()[0].ok);
  EXPECT_EQ(p.results()[0].detail, "non-standard exception");
  EXPECT_FALSE(p.results()[1].ran);
}

TEST(Pipeline, StageRetryPolicyRecoversAndLogsAttempts) {
  Pipeline p;
  int calls = 0;
  util::RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.baseDelaySeconds = 0.0;
  p.addStage(
      "flaky",
      [&]() -> std::string {
        if (++calls < 3) throw Error("not yet");
        return "done";
      },
      policy);
  EXPECT_TRUE(p.run());
  EXPECT_EQ(calls, 3);
  const auto& r = p.results()[0];
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 3);
  ASSERT_EQ(r.attemptLog.size(), 3u);
  EXPECT_FALSE(r.attemptLog[0].ok);
  EXPECT_EQ(r.attemptLog[0].detail, "not yet");
  EXPECT_FALSE(r.attemptLog[1].ok);
  EXPECT_TRUE(r.attemptLog[2].ok);
  EXPECT_EQ(r.detail, "done");
}

TEST(Pipeline, StageRetryExhaustionFailsTheRun) {
  Pipeline p;
  util::RetryPolicy policy;
  policy.maxAttempts = 2;
  policy.baseDelaySeconds = 0.0;
  p.addStage(
      "doomed", []() -> std::string { throw Error("always"); }, policy);
  EXPECT_FALSE(p.run());
  const auto& r = p.results()[0];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.attemptLog.size(), 2u);
  EXPECT_EQ(r.detail, "always");
}

TEST_F(WorkflowTest, ChunkFailuresAreReorderInvariant) {
  makeFile("a.bin", 4 << 20, 0x10);
  makeFile("b.bin", 4 << 20, 0x20);
  TransferConfig config;
  config.chunkFailureProb = 0.25;
  config.seed = 7;

  auto failedChunks = [](const TransferReport& report,
                         const std::string& file) {
    std::vector<std::uint64_t> chunks;
    for (const auto& rec : report.records)
      if (rec.file == file) chunks.push_back(rec.chunkIndex);
    return chunks;
  };

  TransferChannel forward(config);
  const auto ab =
      forward.transfer(src_.string(), dst_.string(), {"a.bin", "b.bin"});
  std::filesystem::remove_all(dst_);
  std::filesystem::create_directories(dst_);
  TransferChannel backward(config);
  const auto ba =
      backward.transfer(src_.string(), dst_.string(), {"b.bin", "a.bin"});

  // The same file fails the same chunks regardless of list position.
  EXPECT_GT(ab.chunksFailed, 0u);
  EXPECT_EQ(ab.chunksFailed, ba.chunksFailed);
  EXPECT_EQ(failedChunks(ab, "a.bin"), failedChunks(ba, "a.bin"));
  EXPECT_EQ(failedChunks(ab, "b.bin"), failedChunks(ba, "b.bin"));
  EXPECT_TRUE(ab.allVerified);
  EXPECT_TRUE(ba.allVerified);
}

TEST_F(WorkflowTest, TransferReportCountsAttempts) {
  makeFile("clean.bin", 2 << 20, 0x01);
  TransferConfig config;  // no failures
  TransferChannel channel(config);
  const auto report =
      channel.transfer(src_.string(), dst_.string(), {"clean.bin"});
  const std::uint64_t nChunks =
      ((2u << 20) + config.chunkBytes - 1) / config.chunkBytes;
  // One attempt per chunk on a clean run; failures add extras.
  EXPECT_EQ(report.attempts, nChunks);
  EXPECT_EQ(report.chunksFailed, 0u);
}

}  // namespace
}  // namespace awp::workflow
