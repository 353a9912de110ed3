// Snapshot isolation for concurrent query serving (DESIGN §16).
//
// The batch pipeline queries a mutable AtypicalForest single-threaded; a
// serving deployment has many reader threads answering Q(W, T) while the
// ingest side keeps adding days and re-materializing levels.  The contract
// here is epoch-swapped immutability:
//
//   * a ForestSnapshot is one frozen epoch — forest, region×day severity
//     measure (`cube`), and a QueryEngine bound to them, all const after
//     construction;
//   * readers AcquireSnapshot() (a shared_ptr copy under a Mutex held for
//     nanoseconds) and then run queries without any synchronization at all
//     — nothing they touch can change;
//   * the single writer mutates a private staging forest/cube that no
//     reader can see, and PublishSnapshot() copies it into a fresh
//     immutable epoch and swaps the pointer.  Readers holding the old
//     epoch keep it alive (shared_ptr) and finish their queries against a
//     consistent state; new acquires see the new epoch.
//
// Readers never block writers and writers never block readers beyond the
// pointer swap; there is no reader-count bookkeeping to contend on.  The
// price is one copy per changed day per publish: a day unchanged since the
// previous epoch, and the region×day rows, are shared between epochs
// (AtypicalForest::EpochCopy, cube::RegionDayMeasure).
#ifndef ATYPICAL_SERVE_SNAPSHOT_H_
#define ATYPICAL_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/forest.h"
#include "core/query.h"
#include "cube/measure.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace atypical {
namespace serve {

// One immutable epoch of serving state.  Everything a query touches hangs
// off this object, so a reader holding the shared_ptr needs no further
// synchronization; QueryEngine::Run is const against a const forest (the
// query-local id generator keeps results deterministic per epoch).
struct ForestSnapshot {
  ForestSnapshot(uint64_t epoch_in, const SensorNetwork* network,
                 const RegionGrid* regions,
                 std::shared_ptr<const AtypicalForest> forest_in,
                 std::shared_ptr<const cube::RegionDayMeasure> cube_in,
                 const QueryEngineOptions& options)
      : epoch(epoch_in),
        forest(std::move(forest_in)),
        cube(std::move(cube_in)),
        engine(network, regions, forest.get(), cube.get(), options) {}

  const uint64_t epoch;
  const std::shared_ptr<const AtypicalForest> forest;
  const std::shared_ptr<const cube::RegionDayMeasure> cube;
  const QueryEngine engine;  // bound to forest/cube above
};

// The epoch swap point: holds the current snapshot behind a Mutex that both
// sides touch only for a shared_ptr copy.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // The current epoch's snapshot; nullptr before the first publish.
  std::shared_ptr<const ForestSnapshot> AcquireSnapshot() const;

  // Swaps in `snapshot` as the current epoch.  Epochs must be published in
  // increasing order (single writer).
  void PublishSnapshot(std::shared_ptr<const ForestSnapshot> snapshot);

  // Epoch of the current snapshot, 0 before the first publish.
  uint64_t current_epoch() const;

 private:
  mutable Mutex mu_;
  std::shared_ptr<const ForestSnapshot> current_ ATYPICAL_GUARDED_BY(mu_);
};

// Writer facade over a staging forest + cube and the snapshot store.
//
// Single-writer: the staging_*() mutators and PublishSnapshot() must be
// called from one thread (or be externally serialized); AcquireSnapshot()
// and current_epoch() are safe from any thread.  The staging state is never
// reachable by readers, so the writer needs no locks while clustering a
// day's records — only the publish itself synchronizes.
class ServingForest {
 public:
  ServingForest(const SensorNetwork* network, const RegionGrid* regions,
                const TimeGrid& grid, const ForestParams& params,
                const QueryEngineOptions& options);

  // ---- writer side ----
  // The private staging forest/cube; mutate freely, then PublishSnapshot().
  AtypicalForest* staging_forest() { return &staging_; }
  cube::RegionDayMeasure* staging_cube() { return &cube_; }

  // Copies the staging state into a new immutable epoch, sharing what did
  // not change since the previous one, and swaps it in.  Returns the
  // published snapshot.
  std::shared_ptr<const ForestSnapshot> PublishSnapshot();

  // ---- reader side ----
  // Never nullptr: the constructor publishes an empty epoch 1.
  std::shared_ptr<const ForestSnapshot> AcquireSnapshot() const {
    return store_.AcquireSnapshot();
  }
  uint64_t current_epoch() const { return store_.current_epoch(); }

 private:
  const SensorNetwork* network_;
  const RegionGrid* regions_;
  QueryEngineOptions options_;
  AtypicalForest staging_;
  cube::RegionDayMeasure cube_;
  uint64_t next_epoch_ = 1;
  SnapshotStore store_;
};

}  // namespace serve
}  // namespace atypical

#endif  // ATYPICAL_SERVE_SNAPSHOT_H_
