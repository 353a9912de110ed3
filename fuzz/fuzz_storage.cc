// Structure-aware fuzzer for the storage salvage path and the ingest guard.
//
// Each iteration derives a damaged variant of a known-good dataset image via
// storage::BlockMutator (seeded, format-aware mutations: scrambled header
// fields, forged counts, payload flips, spliced/replayed blocks, torn
// tails), then drives the full degraded-read pipeline under invariants:
//
//   I1  nothing ever crashes — Open may fail, salvage may lose data, but
//       control always returns with a Status;
//   I2  if salvage Open succeeds, ReadAll succeeds (salvage never turns
//       block damage into an error);
//   I3  every record salvage returns is bit-exact some pristine record —
//       a CRC-failed block never leaks a record;
//   I4  records_recovered equals the number of records returned;
//   I5  a clean() SalvageReport implies the exact pristine sequence;
//   I6  a strict (non-salvage) read that returns kOk implies the pristine
//       record sequence AND a clean salvage report for the same bytes —
//       strict never reports success on damage salvage would flag;
//   I7  feeding the salvaged records to RobustStreamingEventBuilder always
//       reconciles (records_in == accepted + quarantined), even when a
//       replayed block drives the watermark backwards.
//
// A failure prints one line:  FAIL seed=<s> mutations=<m>: <why> [trail]
// and the pair (seed, mutations) reproduces it exactly — that is the corpus
// format of fuzz/corpus/regressions.txt (replayed via --corpus, wired into
// ctest).
//
// Usage:
//   fuzz_storage [--iterations N] [--seed S] [--max-mutations M]
//                [--records R] [--block-records B] [--verbose]
//   fuzz_storage --corpus FILE [--records R] [--block-records B]
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analytics/report.h"
#include "core/ingest.h"
#include "gen/workload.h"
#include "storage/block_mutator.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {
namespace {

using storage::AppliedMutation;
using storage::BlockMutator;
using storage::DatasetReader;
using storage::ReaderOptions;
using storage::SalvageReport;

std::string EncodeKey(const Reading& r) {
  uint8_t buf[storage::kWireRecordBytes];
  storage::EncodeRecord(r, buf);
  return std::string(reinterpret_cast<const char*>(buf),  // NOLINT: byte I/O
                     sizeof(buf));
}

class FuzzHarness {
 public:
  FuzzHarness(size_t num_records, uint32_t block_records, bool verbose)
      : verbose_(verbose) {
    workload_ = MakeWorkload(WorkloadScale::kTiny, 4);
    grid_ = workload_->gen_config.time_grid;
    const Dataset full = workload_->generator->GenerateMonth(0);
    CHECK_GE(full.readings().size(), num_records);
    std::vector<Reading> slice(full.readings().begin(),
                               full.readings().begin() +
                                   static_cast<ptrdiff_t>(num_records));
    pristine_dataset_ = Dataset(full.meta(), std::move(slice));
    for (const Reading& r : pristine_dataset_.readings()) {
      pristine_keys_.insert(EncodeKey(r));
    }

    // The pid keeps concurrent harnesses (ctest -j runs the corpus replay
    // and the smoke test side by side) off each other's file.
    path_ = StrPrintf("fuzz_storage_tmp_%ld_%u.atyp",
                      static_cast<long>(getpid()),
                      static_cast<unsigned>(block_records));
    storage::WriterOptions options;
    options.block_records = block_records;
    CHECK_OK(WriteDataset(pristine_dataset_, path_, options).status());
    std::ifstream in(path_, std::ios::binary);
    std::vector<uint8_t> pristine_bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    mutator_ = std::make_unique<BlockMutator>(std::move(pristine_bytes));
    CHECK_GE(mutator_->num_blocks(), 3u);
  }

  ~FuzzHarness() { std::remove(path_.c_str()); }

  // Runs one (seed, mutation count) case through every invariant.  Returns
  // true when all hold; prints a FAIL line otherwise.
  bool CheckOne(uint64_t seed, int mutations) {
    std::vector<AppliedMutation> applied;
    const std::vector<uint8_t> image =
        mutator_->Mutate(seed, mutations, &applied);
    for (const AppliedMutation& m : applied) ++kind_counts_[m.kind];
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),  // NOLINT: byte I/O
                static_cast<std::streamsize>(image.size()));
    }

    const auto fail = [&](const std::string& why) {
      std::fprintf(stderr, "FAIL seed=%llu mutations=%d: %s [%s]\n",
                   (unsigned long long)seed, mutations, why.c_str(),
                   DescribeMutations(applied).c_str());
      return false;
    };

    // ---- salvage pass ----
    ReaderOptions salvage_options;
    salvage_options.salvage = true;
    SalvageReport report;
    bool salvage_opened = false;
    std::vector<Reading> salvaged;
    {
      Result<DatasetReader> reader = DatasetReader::Open(path_, salvage_options);
      if (reader.ok()) {
        salvage_opened = true;
        Result<Dataset> got = reader->ReadAll();
        report = reader->salvage_report();
        if (!got.ok()) {
          // I2: salvage degraded reads never fail after a successful Open.
          return fail("salvage ReadAll failed: " + got.status().ToString());
        }
        salvaged = got.value().readings();
      }
    }
    if (salvage_opened) {
      if (report.records_recovered != salvaged.size()) {
        return fail(StrPrintf("I4: records_recovered=%llu but %zu returned",
                              (unsigned long long)report.records_recovered,
                              salvaged.size()));
      }
      if (report.blocks_skipped != report.skipped_blocks.size()) {
        return fail("I4: blocks_skipped disagrees with skipped_blocks list");
      }
      for (const Reading& r : salvaged) {
        if (!pristine_keys_.contains(EncodeKey(r))) {
          // I3: a record that matches no pristine record leaked out of a
          // corrupt block.
          return fail(StrPrintf("I3: non-pristine record (sensor=%u window=%u)",
                                r.sensor, r.window));
        }
      }
      if (report.clean() && !MatchesPristine(salvaged)) {
        return fail("I5: clean report but records differ from pristine");
      }

      // I7: the ingest guard survives whatever salvage produced.
      if (!IngestReconciles(salvaged)) {
        return fail("I7: ingest stats do not reconcile");
      }
    }

    // ---- strict pass (differential oracle) ----
    const Result<Dataset> strict = storage::ReadDataset(path_);
    if (strict.ok()) {
      if (!MatchesPristine(strict.value().readings())) {
        return fail("I6: strict read ok but records differ from pristine");
      }
      if (!salvage_opened) {
        return fail("I6: strict read ok but salvage Open failed");
      }
      if (!report.clean()) {
        return fail("I6: strict read ok but salvage report is not clean: " +
                    analytics::SalvageHealthLine(report));
      }
    }

    if (verbose_) {
      std::printf("ok seed=%llu mutations=%d [%s] %s\n",
                  (unsigned long long)seed, mutations,
                  DescribeMutations(applied).c_str(),
                  salvage_opened ? analytics::SalvageHealthLine(report).c_str()
                                 : "(open failed)");
    }
    return true;
  }

  void PrintKindCoverage() const {
    std::printf("mutation coverage:\n");
    for (const auto& [kind, count] : kind_counts_) {
      std::printf("  %-18s %llu\n", storage::MutationKindName(kind),
                  (unsigned long long)count);
    }
  }

 private:
  bool MatchesPristine(const std::vector<Reading>& got) const {
    const std::vector<Reading>& want = pristine_dataset_.readings();
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (EncodeKey(got[i]) != EncodeKey(want[i])) return false;
    }
    return true;
  }

  bool IngestReconciles(const std::vector<Reading>& readings) {
    ClusterIdGenerator ids(1);
    size_t clusters = 0;
    IngestOptions options;
    options.policy = IngestPolicy::kBuffer;
    RobustStreamingEventBuilder guard(
        workload_->sensors.get(), grid_,
        analytics::DefaultForestParams().retrieval, &ids,
        [&](AtypicalCluster) { ++clusters; }, options);
    for (const Reading& r : readings) {
      if (!r.is_atypical()) continue;
      (void)guard.Add(AtypicalRecord{r.sensor, r.window, r.atypical_minutes,
                                     r.true_event});  // verdict irrelevant here
    }
    guard.Flush();
    return guard.stats().Reconciles();
  }

  bool verbose_;
  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  Dataset pristine_dataset_;
  std::unordered_set<std::string> pristine_keys_;
  std::string path_;
  std::unique_ptr<BlockMutator> mutator_;
  std::map<storage::MutationKind, uint64_t> kind_counts_;
};

// Corpus line format: "<seed> <mutations>"; '#' starts a comment.
int ReplayCorpus(FuzzHarness* harness, const std::string& corpus_path) {
  std::ifstream corpus(corpus_path);
  if (!corpus) {
    std::fprintf(stderr, "cannot open corpus: %s\n", corpus_path.c_str());
    return 2;
  }
  int entries = 0;
  int failures = 0;
  std::string line;
  while (std::getline(corpus, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    unsigned long long seed = 0;
    int mutations = 0;
    if (std::sscanf(line.c_str(), "%llu %d", &seed, &mutations) != 2) {
      continue;  // blank or comment-only line
    }
    ++entries;
    if (!harness->CheckOne(seed, mutations)) ++failures;
  }
  std::printf("corpus replay: %d entries, %d failures\n", entries, failures);
  if (entries == 0) {
    std::fprintf(stderr, "corpus had no entries: %s\n", corpus_path.c_str());
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

int FuzzMain(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int iterations = static_cast<int>(flags.GetInt("iterations", 1000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int max_mutations = static_cast<int>(flags.GetInt("max-mutations", 4));
  const size_t num_records =
      static_cast<size_t>(flags.GetInt("records", 1500));
  const uint32_t block_records =
      static_cast<uint32_t>(flags.GetInt("block-records", 96));
  const std::string corpus = flags.GetString("corpus", "");
  const bool verbose = flags.GetBool("verbose", false);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  CHECK_GT(max_mutations, 0);

  FuzzHarness harness(num_records, block_records, verbose);
  if (!corpus.empty()) return ReplayCorpus(&harness, corpus);

  for (int i = 0; i < iterations; ++i) {
    const uint64_t case_seed = seed + static_cast<uint64_t>(i);
    const int mutations = 1 + i % max_mutations;
    if (!harness.CheckOne(case_seed, mutations)) {
      std::fprintf(stderr,
                   "reproduce: fuzz_storage --corpus <(echo \"%llu %d\")\n",
                   (unsigned long long)case_seed, mutations);
      return 1;
    }
  }
  std::printf("fuzz_storage: %d iterations, 0 failures\n", iterations);
  harness.PrintKindCoverage();
  return 0;
}

}  // namespace
}  // namespace atypical

int main(int argc, char** argv) { return atypical::FuzzMain(argc, argv); }
