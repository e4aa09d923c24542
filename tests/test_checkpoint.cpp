// Crash-safety suite: the atomic-write/CRC layer, the JSON reader, the
// checkpoint schema (fingerprint binding, corruption/version/mismatch
// rejection) and the contract that matters most — a sweep interrupted at an
// arbitrary checkpoint and resumed must report exactly what the
// uninterrupted run reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/checkpoint.hpp"
#include "core/partitioner.hpp"
#include "milp/types.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// atomic_file: CRC32, durable writes, sealed-JSON roundtrip

TEST(AtomicFileTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the nine-digit test string.
  EXPECT_EQ(atomicfile::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(atomicfile::crc32(""), 0x00000000u);
}

TEST(AtomicFileTest, WriteThenReadRoundtrips) {
  const std::string path = temp_path("atomic_roundtrip.txt");
  std::string payload = "line one\nline two\n";
  payload.push_back('\0');  // binary-safe: the writer takes a string_view
  payload += "binary tail";
  std::string error;
  ASSERT_TRUE(atomicfile::write_file_atomic(path, payload, &error)) << error;
  const auto read_back = atomicfile::read_file(path);
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, payload);
  // Overwrite is atomic too: the new contents fully replace the old.
  ASSERT_TRUE(atomicfile::write_file_atomic(path, "v2", &error)) << error;
  EXPECT_EQ(atomicfile::read_file(path).value_or(""), "v2");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, WriteIntoMissingDirectoryFailsWithError) {
  std::string error;
  EXPECT_FALSE(atomicfile::write_file_atomic(
      "/nonexistent_dir_sparcs/test.txt", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(AtomicFileTest, SealedJsonStaysOneValidDocumentAndUnseals) {
  const std::string doc = "{\"a\":1,\"b\":[true,null,\"s\"]}";
  const std::string sealed = atomicfile::seal_json_with_crc(doc);
  // The seal embeds the CRC as a final member, not as trailing bytes: the
  // sealed text must still parse as one JSON document.
  const json::ParseResult parsed = json::parse(sealed);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(parsed.value.member_string("crc32").empty());
  std::string error;
  const auto unsealed = atomicfile::unseal_json_with_crc(sealed, &error);
  ASSERT_TRUE(unsealed.has_value()) << error;
}

TEST(AtomicFileTest, UnsealRejectsFlippedByte) {
  std::string sealed = atomicfile::seal_json_with_crc("{\"value\":12345}");
  sealed[3] ^= 0x01;  // flip a payload byte (not the trailer itself)
  std::string error;
  EXPECT_FALSE(atomicfile::unseal_json_with_crc(sealed, &error).has_value());
  EXPECT_NE(error.find("crc32 mismatch"), std::string::npos) << error;
  // A flip inside the trailer is rejected too, as an unparseable seal.
  std::string trailer_flip = atomicfile::seal_json_with_crc("{\"v\":1}");
  trailer_flip[trailer_flip.size() - 6] = 'z';  // not a hex digit
  EXPECT_FALSE(
      atomicfile::unseal_json_with_crc(trailer_flip, &error).has_value());
}

TEST(AtomicFileTest, UnsealRejectsTruncationAndTrailingBytes) {
  const std::string sealed =
      atomicfile::seal_json_with_crc("{\"value\":12345}");
  std::string error;
  // Truncated anywhere inside the trailer: no valid seal remains.
  EXPECT_FALSE(
      atomicfile::unseal_json_with_crc(sealed.substr(0, sealed.size() - 4),
                                       &error)
          .has_value());
  // A document with no seal at all.
  EXPECT_FALSE(
      atomicfile::unseal_json_with_crc("{\"value\":12345}", &error)
          .has_value());
  EXPECT_NE(error.find("no crc32 trailer"), std::string::npos) << error;
  // Bytes after the trailer (e.g. a concatenated second document).
  EXPECT_FALSE(
      atomicfile::unseal_json_with_crc(sealed + "{}", &error).has_value());
}

// ---------------------------------------------------------------------------
// json: the defensive reader the checkpoint loader is built on

TEST(JsonTest, ParsesScalarsArraysAndNestedObjects) {
  const json::ParseResult r = json::parse(
      R"({"n":-12.5e1,"t":true,"nul":null,"s":"a\"bA","arr":[1,2,3],)"
      R"("obj":{"inner":7}})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.value.member_double("n"), -125.0);
  EXPECT_TRUE(r.value.member_bool("t"));
  ASSERT_NE(r.value.find("nul"), nullptr);
  EXPECT_TRUE(r.value.find("nul")->is_null());
  EXPECT_EQ(r.value.member_string("s"), "a\"bA");
  ASSERT_NE(r.value.find("arr"), nullptr);
  EXPECT_EQ(r.value.find("arr")->array().size(), 3u);
  ASSERT_NE(r.value.find("obj"), nullptr);
  EXPECT_EQ(r.value.find("obj")->member_int("inner"), 7);
}

TEST(JsonTest, RejectsMalformedInputWithPositionedError) {
  for (const char* bad :
       {"{", "{\"a\" 1}", "[1,2,]", "tru", "\"unterminated", "{}extra", ""}) {
    const json::ParseResult r = json::parse(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_NE(r.error.find("offset"), std::string::npos) << r.error;
  }
}

TEST(JsonTest, BoundsHostileNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(json::parse(deep).ok);
}

// ---------------------------------------------------------------------------
// checkpoint schema: fingerprint binding and rejection paths

graph::TaskGraph ar_graph() { return workloads::ar_filter_task_graph(); }
arch::Device ar_device() { return arch::custom("ar_dev", 200, 64, 50); }

TEST(CheckpointTest, FingerprintIsSensitiveToEveryInput) {
  const graph::TaskGraph g = ar_graph();
  const arch::Device dev = ar_device();
  FormulationOptions form;
  const std::uint64_t base =
      checkpoint_fingerprint(g, dev, 0, 1, 5.0, 64, form);
  EXPECT_EQ(base, checkpoint_fingerprint(g, dev, 0, 1, 5.0, 64, form));
  EXPECT_NE(base, checkpoint_fingerprint(g, dev, 1, 1, 5.0, 64, form));
  EXPECT_NE(base, checkpoint_fingerprint(g, dev, 0, 2, 5.0, 64, form));
  EXPECT_NE(base, checkpoint_fingerprint(g, dev, 0, 1, 6.0, 64, form));
  EXPECT_NE(base, checkpoint_fingerprint(g, dev, 0, 1, 5.0, 32, form));
  FormulationOptions other_form;
  other_form.include_memory = false;
  EXPECT_NE(base, checkpoint_fingerprint(g, dev, 0, 1, 5.0, 64, other_form));
  const arch::Device other_dev = arch::custom("ar_dev", 200, 64, 75);
  EXPECT_NE(base, checkpoint_fingerprint(g, other_dev, 0, 1, 5.0, 64, form));
}

TEST(CheckpointTest, LoadMissingFileReportsMissing) {
  const CheckpointLoadResult r = load_checkpoint(
      temp_path("no_such_checkpoint.json"), 0, ar_graph(), ar_device());
  EXPECT_EQ(r.status, CheckpointLoadStatus::kMissing);
}

/// Runs the ar sweep once with a checkpoint attached; returns the report.
PartitionerReport run_partitioner(const std::string& ckpt_path, bool resume,
                                  std::function<void(const SweepCheckpoint&)>
                                      observer = nullptr,
                                  milp::CancelToken cancel = {}) {
  const graph::TaskGraph g = ar_graph();
  const arch::Device dev = ar_device();
  PartitionerOptions options;
  options.budget.delta = 5.0;
  if (cancel.valid()) options.budget.solver.cancel = cancel;
  options.checkpoint.path = ckpt_path;
  options.checkpoint.min_interval_sec = 0.0;
  options.checkpoint.resume = resume;
  options.checkpoint.observer = std::move(observer);
  return TemporalPartitioner(g, dev, options).run();
}

TEST(CheckpointTest, CompletedRunWritesLoadableCheckpoint) {
  const std::string path = temp_path("ckpt_complete.json");
  const PartitionerReport report = run_partitioner(path, /*resume=*/false);
  ASSERT_TRUE(report.feasible);
  ASSERT_FALSE(report.degraded);

  // The on-disk document is one valid JSON object with the CRC member.
  const json::ParseResult parsed = json::parse(slurp(path));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.member_string("format"), "sparcs-sweep-checkpoint");

  FormulationOptions form;
  const std::uint64_t fp = checkpoint_fingerprint(
      ar_graph(), ar_device(), 0, 1, 5.0, 64, form);
  const CheckpointLoadResult r =
      load_checkpoint(path, fp, ar_graph(), ar_device());
  ASSERT_EQ(r.status, CheckpointLoadStatus::kOk) << r.error;
  EXPECT_TRUE(r.checkpoint.complete);
  EXPECT_EQ(r.checkpoint.achieved_latency, report.achieved_latency);
  EXPECT_EQ(r.checkpoint.best_num_partitions, report.best_num_partitions);
  EXPECT_EQ(r.checkpoint.ilp_solves, report.ilp_solves);
  ASSERT_TRUE(r.checkpoint.best.has_value());
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsCorruptedFile) {
  const std::string path = temp_path("ckpt_corrupt.json");
  const PartitionerReport report = run_partitioner(path, /*resume=*/false);
  ASSERT_TRUE(report.feasible);
  std::string text = slurp(path);
  text[text.size() / 2] ^= 0x01;  // flip one byte mid-document
  std::string error;
  ASSERT_TRUE(atomicfile::write_file_atomic(path, text, &error)) << error;

  FormulationOptions form;
  const std::uint64_t fp = checkpoint_fingerprint(
      ar_graph(), ar_device(), 0, 1, 5.0, 64, form);
  const CheckpointLoadResult r =
      load_checkpoint(path, fp, ar_graph(), ar_device());
  EXPECT_EQ(r.status, CheckpointLoadStatus::kCorrupt);
  EXPECT_NE(r.error.find("crc32 mismatch"), std::string::npos) << r.error;
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsVersionSkewAndFingerprintMismatch) {
  const std::string path = temp_path("ckpt_skew.json");
  const PartitionerReport report = run_partitioner(path, /*resume=*/false);
  ASSERT_TRUE(report.feasible);
  const std::string sealed = slurp(path);
  FormulationOptions form;
  const std::uint64_t fp = checkpoint_fingerprint(
      ar_graph(), ar_device(), 0, 1, 5.0, 64, form);

  // A checkpoint from a different (newer) writer version: rejected even
  // though its CRC is intact.
  std::string error;
  std::string body = atomicfile::unseal_json_with_crc(sealed, &error).value();
  const std::string from = "\"version\": 1";
  const auto at = body.find(from);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, from.size(), "\"version\": 99");
  const CheckpointLoadResult skew = parse_checkpoint(
      atomicfile::seal_json_with_crc(body), fp, ar_graph(), ar_device());
  EXPECT_EQ(skew.status, CheckpointLoadStatus::kVersionSkew);
  EXPECT_NE(skew.error.find("99"), std::string::npos) << skew.error;

  // Same file, different run inputs: the fingerprint refuses the mix.
  const CheckpointLoadResult mismatch =
      parse_checkpoint(sealed, fp ^ 1, ar_graph(), ar_device());
  EXPECT_EQ(mismatch.status, CheckpointLoadStatus::kFingerprintMismatch);
  EXPECT_NE(mismatch.error.find("different inputs"), std::string::npos)
      << mismatch.error;
  std::remove(path.c_str());
}

TEST(CheckpointTest, WriterThrottlesUnforcedWritesAndReportsFailure) {
  SweepCheckpoint cp;
  cp.phase = 1;
  cp.next_n = 1;
  {
    const std::string path = temp_path("ckpt_throttle.json");
    CheckpointWriter writer(path, /*min_interval_sec=*/3600.0, 42);
    EXPECT_TRUE(writer.write(cp, /*force=*/false));  // first write lands
    EXPECT_FALSE(writer.write(cp, /*force=*/false));  // throttled
    EXPECT_TRUE(writer.write(cp, /*force=*/true));    // force bypasses
    EXPECT_EQ(writer.writes(), 2);
    EXPECT_FALSE(writer.failed());
    std::remove(path.c_str());
  }
  {
    CheckpointWriter writer("/nonexistent_dir_sparcs/ckpt.json", 0.0, 42);
    EXPECT_FALSE(writer.write(cp, /*force=*/true));
    EXPECT_TRUE(writer.failed());
  }
}

// ---------------------------------------------------------------------------
// resume determinism: the acceptance contract of the whole subsystem

void expect_reports_equal(const PartitionerReport& base,
                          const PartitionerReport& other,
                          const std::string& label) {
  EXPECT_EQ(base.feasible, other.feasible) << label;
  EXPECT_EQ(base.achieved_latency, other.achieved_latency) << label;
  EXPECT_EQ(base.best_num_partitions, other.best_num_partitions) << label;
  EXPECT_EQ(base.ilp_solves, other.ilp_solves) << label;
  EXPECT_EQ(base.stopped_by_lower_bound, other.stopped_by_lower_bound)
      << label;
  ASSERT_EQ(base.stages.size(), other.stages.size()) << label;
  for (std::size_t i = 0; i < base.stages.size(); ++i) {
    EXPECT_EQ(base.stages[i].num_partitions, other.stages[i].num_partitions)
        << label << " stage " << i;
    EXPECT_EQ(base.stages[i].status, other.stages[i].status)
        << label << " stage " << i;
    EXPECT_EQ(base.stages[i].solves, other.stages[i].solves)
        << label << " stage " << i;
  }
}

TEST(CheckpointResumeTest, InterruptedSweepResumesToIdenticalReport) {
  const std::string base_path = temp_path("ckpt_resume_base.json");
  const PartitionerReport baseline =
      run_partitioner(base_path, /*resume=*/false);
  ASSERT_TRUE(baseline.feasible);
  ASSERT_FALSE(baseline.degraded);
  std::remove(base_path.c_str());

  // Interrupt after the k-th durable checkpoint write — early, mid-sweep and
  // late — then resume and demand the uninterrupted report, byte for byte on
  // every deterministic field.
  for (const int k : {1, 2, 4, 7}) {
    const std::string path =
        temp_path("ckpt_resume_k" + std::to_string(k) + ".json");
    milp::CancelToken cancel = milp::CancelToken::create();
    int writes = 0;
    const PartitionerReport interrupted = run_partitioner(
        path, /*resume=*/false,
        [&writes, &cancel, k](const SweepCheckpoint&) {
          if (++writes >= k) cancel.request_cancel();
        },
        cancel);
    if (!interrupted.degraded) {
      // The sweep finished before the k-th write: nothing was lost, and the
      // run must simply match the baseline.
      expect_reports_equal(baseline, interrupted, "k=" + std::to_string(k));
    } else {
      const PartitionerReport resumed = run_partitioner(path, /*resume=*/true);
      EXPECT_TRUE(resumed.resumed) << "k=" << k;
      EXPECT_FALSE(resumed.degraded) << "k=" << k;
      expect_reports_equal(baseline, resumed, "k=" + std::to_string(k));
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointResumeTest, CompleteCheckpointShortCircuitsTheSweep) {
  const std::string path = temp_path("ckpt_resume_complete.json");
  const PartitionerReport baseline = run_partitioner(path, /*resume=*/false);
  ASSERT_TRUE(baseline.feasible);
  int observed = 0;
  const PartitionerReport resumed = run_partitioner(
      path, /*resume=*/true,
      [&observed](const SweepCheckpoint&) { ++observed; });
  EXPECT_TRUE(resumed.resumed);
  expect_reports_equal(baseline, resumed, "complete-resume");
  // Reproducing the answer re-solves nothing; the only write re-seals the
  // final state.
  EXPECT_LE(observed, 1);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, RejectedCheckpointFallsBackToFreshRun) {
  const std::string path = temp_path("ckpt_resume_garbage.json");
  {
    std::ofstream os(path);
    os << "this is not a checkpoint";
  }
  const PartitionerReport report = run_partitioner(path, /*resume=*/true);
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.resume_error.empty());
  EXPECT_TRUE(report.feasible);  // the fresh run proceeded to the answer
  EXPECT_FALSE(report.degraded);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sparcs::core
