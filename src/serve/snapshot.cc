#include "serve/snapshot.h"

#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace atypical {
namespace serve {

std::shared_ptr<const ForestSnapshot> SnapshotStore::AcquireSnapshot() const {
  MutexLock lock(&mu_);
  return current_;
}

void SnapshotStore::PublishSnapshot(
    std::shared_ptr<const ForestSnapshot> snapshot) {
  CHECK(snapshot != nullptr);
  {
    MutexLock lock(&mu_);
    if (current_ != nullptr) {
      CHECK_GT(snapshot->epoch, current_->epoch)
          << "snapshot epochs must be published in increasing order";
    }
    current_.swap(snapshot);
  }
  // `snapshot` now holds the previous epoch: if it is the last reference,
  // the teardown runs here, after unlock, not in front of acquires.
}

uint64_t SnapshotStore::current_epoch() const {
  MutexLock lock(&mu_);
  return current_ == nullptr ? 0 : current_->epoch;
}

ServingForest::ServingForest(const SensorNetwork* network,
                             const RegionGrid* regions,
                             const TimeGrid& grid, const ForestParams& params,
                             const QueryEngineOptions& options)
    : network_(network),
      regions_(regions),
      options_(options),
      staging_(network, grid, params) {
  CHECK(regions != nullptr);
  // Publish an empty epoch 1 up front so AcquireSnapshot() never returns
  // nullptr: queries before the first data publish get empty answers, not a
  // reader-side null check.
  PublishSnapshot();
}

std::shared_ptr<const ForestSnapshot> ServingForest::PublishSnapshot() {
  static obs::Counter* const publishes =
      obs::Registry()->GetCounter("serve.snapshot.publishes");
  static obs::Gauge* const epoch_gauge =
      obs::Registry()->GetGauge("serve.snapshot.epoch");
  static obs::Counter* const days_copied =
      obs::Registry()->GetCounter("serve.snapshot.days_copied");
  static obs::Histogram* const seconds =
      obs::Registry()->GetHistogram("serve.snapshot.publish_seconds");
  obs::TraceSpan span(seconds);

  // Single writer: the current epoch is the one this publish follows.
  const std::shared_ptr<const ForestSnapshot> previous =
      store_.AcquireSnapshot();
  uint64_t copied = 0;
  auto snapshot = std::make_shared<const ForestSnapshot>(
      next_epoch_++, network_, regions_,
      std::make_shared<const AtypicalForest>(staging_.EpochCopy(
          previous == nullptr ? nullptr : previous->forest.get(), &copied)),
      std::make_shared<const cube::RegionDayMeasure>(cube_), options_);
  store_.PublishSnapshot(snapshot);

  publishes->Add(1);
  days_copied->Add(copied);
  epoch_gauge->Set(static_cast<int64_t>(snapshot->epoch));
  return snapshot;
}

}  // namespace serve
}  // namespace atypical
