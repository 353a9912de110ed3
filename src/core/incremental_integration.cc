#include "core/incremental_integration.h"

#include <algorithm>
#include <utility>

#include "obs/stats.h"
#include "util/logging.h"

namespace atypical {

namespace {
// Provisional builder micro ids live far above any real sequence so a
// leaked scratch id is obvious in logs and can never collide with the ids
// Finalize() assigns from the real generator.
constexpr ClusterId kScratchIdBase = ClusterId{1} << 40;
}  // namespace

IncrementalIntegrator::IncrementalIntegrator(const IntegrationParams& params,
                                             ClusterIdGenerator* ids)
    : params_(params), ids_(ids), scratch_ids_(kScratchIdBase) {
  CHECK_GT(params.delta_sim, 0.0)
      << "δsim must be positive (disjoint clusters have similarity 0)";
  CHECK(ids != nullptr);
}

StreamingEventBuilder::EmitSeqFn IncrementalIntegrator::AsEmitFn() {
  return [this](AtypicalCluster micro, uint64_t first_record_seq) {
    Accept(std::move(micro), first_record_seq);
  };
}

void IncrementalIntegrator::Accept(AtypicalCluster micro,
                                   uint64_t first_record_seq) {
  CHECK(!finalized_)
      << "Accept after Finalize: call Reset() to start a new cycle";
  if (!retained_.empty()) {
    CHECK(micro.key_mode == retained_[0].micro.key_mode)
        << "all inputs must share one temporal key mode";
  }
  DCHECK_EQ(micro.micro_ids.size(), size_t{1})
      << "Accept takes micro-clusters, not merged macros";
  static obs::Counter* const obs_arrivals =
      obs::Registry()->GetCounter("integration.incremental.arrivals");
  obs_arrivals->Add(1);
  retained_.push_back(RetainedMicro{std::move(micro), first_record_seq});
}

std::vector<AtypicalCluster> IncrementalIntegrator::Finalize(
    IntegrationStats* stats, std::vector<AtypicalCluster>* canonical_micros) {
  CHECK(!finalized_)
      << "Finalize called twice: call Reset() to start a new cycle";
  finalized_ = true;

  // Batch RetrieveEvents orders events by smallest record index; an event's
  // smallest record index is the feed position of its first record — the
  // first_record_seq the builders hand us (merges min-propagate it).  So
  // sorting by seq and replaying the real generator in that order
  // reproduces the batch micro numbering exactly.
  std::sort(retained_.begin(), retained_.end(),
            [](const RetainedMicro& a, const RetainedMicro& b) {
              return a.first_seq < b.first_seq;
            });
  std::vector<AtypicalCluster> micros;
  micros.reserve(retained_.size());
  for (size_t i = 0; i < retained_.size(); ++i) {
    if (i > 0) {
      CHECK_NE(retained_[i].first_seq, retained_[i - 1].first_seq)
          << "first_record_seq values must be unique within a cycle";
    }
    AtypicalCluster micro = std::move(retained_[i].micro);
    micro.id = ids_->Next();
    micro.micro_ids = {micro.id};
    micros.push_back(std::move(micro));
  }
  if (canonical_micros != nullptr) *canonical_micros = micros;

  IntegrationStats local;
  std::vector<AtypicalCluster> macros =
      IntegrateClusters(std::move(micros), params_, ids_, &local);

  static obs::Counter* const obs_finalize_runs =
      obs::Registry()->GetCounter("integration.incremental.finalize_runs");
  static obs::Counter* const obs_finalize_merges =
      obs::Registry()->GetCounter("integration.incremental.finalize_merges");
  static obs::Histogram* const obs_finalize_seconds =
      obs::Registry()->GetHistogram("integration.incremental.finalize_seconds");
  obs_finalize_runs->Add(1);
  obs_finalize_merges->Add(local.merges);
  obs_finalize_seconds->Record(local.seconds);

  if (stats != nullptr) *stats = local;
  return macros;
}

void IncrementalIntegrator::Reset() {
  retained_.clear();
  finalized_ = false;
  scratch_ids_ = ClusterIdGenerator(kScratchIdBase);
}

}  // namespace atypical
