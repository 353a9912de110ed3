#include "core/forest.h"

#include <algorithm>
#include <iterator>

#include "core/temporal_key.h"
#include "obs/stats.h"
#include "util/logging.h"

namespace atypical {

AtypicalForest::AtypicalForest(const SensorNetwork* network,
                               const TimeGrid& grid,
                               const ForestParams& params)
    : network_(network), grid_(grid), params_(params), ids_(1) {
  CHECK(network != nullptr);
}

void AtypicalForest::AddDay(int day,
                            const std::vector<AtypicalRecord>& records) {
  for (const AtypicalRecord& r : records) {
    CHECK_EQ(grid_.DayOfWindow(r.window), day)
        << "record window not on day " << day;
  }
  std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records, *network_, grid_, params_.retrieval, &ids_);

  static obs::Counter* const days_added =
      obs::Registry()->GetCounter("forest.days_added");
  static obs::Counter* const day_batches_merged =
      obs::Registry()->GetCounter("forest.day_batches_merged");
  static obs::Histogram* const micros_per_day = obs::Registry()->GetHistogram(
      "forest.micros_per_day", obs::BucketLayout::Counts());
  micros_per_day->Record(static_cast<double>(micros.size()));

  num_micros_ += micros.size();
  Day& stored = days_[day];
  stored.version = ++version_;
  if (stored.micros == nullptr) {
    days_added->Add(1);
  } else {
    // Late batch for an existing day: the new batch was clustered on its
    // own above; append its micro-clusters to a copy of the day's leaves.
    // Records split across batches are not re-joined at the leaf — query-
    // time integration merges similar clusters.
    day_batches_merged->Add(1);
    micros.insert(micros.begin(), stored.micros->begin(), stored.micros->end());
  }
  stored.micros = std::make_shared<Block::element_type>(std::move(micros));
}

void AtypicalForest::AddRecords(const std::vector<AtypicalRecord>& records) {
  std::map<int, std::vector<AtypicalRecord>> by_day;
  for (const AtypicalRecord& r : records) {
    by_day[grid_.DayOfWindow(r.window)].push_back(r);
  }
  for (auto& [day, day_records] : by_day) {
    AddDay(day, day_records);
  }
}

void AtypicalForest::RecordDayProvenance(int day,
                                         const DayProvenance& provenance) {
  DayProvenance& stored = provenance_by_day_[day];
  const bool was_degraded = stored.degraded();
  stored.records_stored += provenance.records_stored;
  stored.records_lost += provenance.records_lost;
  stored.records_quarantined += provenance.records_quarantined;
  stored.blocks_skipped += provenance.blocks_skipped;
  stored.footer_missing = stored.footer_missing || provenance.footer_missing;

  static obs::Counter* const degraded_days =
      obs::Registry()->GetCounter("degradation.degraded_days");
  static obs::Counter* const lost =
      obs::Registry()->GetCounter("degradation.records_lost");
  static obs::Counter* const quarantined =
      obs::Registry()->GetCounter("degradation.records_quarantined");
  if (!was_degraded && stored.degraded()) degraded_days->Add(1);
  lost->Add(provenance.records_lost);
  quarantined->Add(provenance.records_quarantined);
}

AtypicalForest::ProvenanceRange AtypicalForest::ProvenanceInRange(
    const DayRange& range) const {
  if (range.NumDays() <= 0) {
    return {provenance_by_day_.end(), provenance_by_day_.end()};
  }
  return {provenance_by_day_.lower_bound(range.first_day),
          provenance_by_day_.upper_bound(range.last_day)};
}

std::vector<int> AtypicalForest::Days() const {
  std::vector<int> days;
  days.reserve(days_.size());
  for (const auto& [day, _] : days_) days.push_back(day);
  return days;
}

int AtypicalForest::NumDaysInRange(const DayRange& range) const {
  if (range.NumDays() <= 0) return 0;
  return static_cast<int>(std::distance(days_.lower_bound(range.first_day),
                                        days_.upper_bound(range.last_day)));
}

const std::vector<AtypicalCluster>& AtypicalForest::MicrosOfDay(int day) const {
  const auto it = days_.find(day);
  CHECK(it != days_.end()) << "no micro-clusters for day " << day;
  return *it->second.micros;
}

std::vector<const AtypicalCluster*> AtypicalForest::MicrosInRange(
    const DayRange& range) const {
  std::vector<const AtypicalCluster*> out;
  AppendMicrosInRange(range, &out);
  return out;
}

size_t AtypicalForest::AppendMicrosInRange(
    const DayRange& range, std::vector<const AtypicalCluster*>* out) const {
  const size_t before = out->size();
  for (auto it = days_.lower_bound(range.first_day);
       it != days_.end() && it->first <= range.last_day; ++it) {
    for (const AtypicalCluster& c : *it->second.micros) out->push_back(&c);
  }
  return out->size() - before;
}

std::map<ClusterId, double> AtypicalForest::MicroSeverities(
    const DayRange& range) const {
  std::map<ClusterId, double> out;
  for (const AtypicalCluster* c : MicrosInRange(range)) {
    out.emplace(c->id, c->severity());
  }
  return out;
}

void AtypicalForest::AdvanceIdsPast(
    const std::vector<AtypicalCluster>& clusters) {
  ClusterId max_id = 0;
  for (const AtypicalCluster& c : clusters) {
    max_id = std::max(max_id, c.id);
    for (ClusterId micro : c.micro_ids) max_id = std::max(max_id, micro);
  }
  ids_.EnsureAbove(max_id);
}

void AtypicalForest::InstallDay(int day,
                                std::vector<AtypicalCluster> micros) {
  CHECK(!days_.contains(day)) << "day " << day << " already present";
  AdvanceIdsPast(micros);
  num_micros_ += micros.size();
  days_.emplace(day,
                Day{std::make_shared<Block::element_type>(std::move(micros)),
                    ++version_});
}

uint64_t AtypicalForest::ByteSize() const {
  uint64_t bytes = 0;
  auto add = [&bytes](const Block& block) {
    for (const AtypicalCluster& c : *block) bytes += c.ByteSize();
  };
  for (const auto& [_, day] : days_) add(day.micros);
  return bytes;
}

AtypicalForest AtypicalForest::EpochCopy(const AtypicalForest* previous,
                                         uint64_t* copied) const {
  AtypicalForest epoch = *this;
  // Days are never removed, so `previous`'s days are a subset of these: one
  // walk in day order pairs each day with its previous version.
  auto old = previous == nullptr ? days_.end() : previous->days_.begin();
  const auto old_end =
      previous == nullptr ? days_.end() : previous->days_.end();
  for (auto& [day, leaves] : epoch.days_) {
    while (old != old_end && old->first < day) ++old;
    const bool unchanged = old != old_end && old->first == day &&
                           old->second.version == leaves.version;
    if (unchanged) {
      leaves.micros = old->second.micros;
    } else {
      leaves.micros = std::make_shared<Block::element_type>(*leaves.micros);
      ++*copied;
    }
  }
  return epoch;
}

std::map<int, std::vector<AtypicalCluster>> MaterializeLevel(
    const AtypicalForest& forest, const std::function<int(int)>& unit_of_day,
    ClusterIdGenerator* ids) {
  std::map<int, DayRange> units;
  for (int day : forest.Days()) {
    auto [it, inserted] = units.emplace(unit_of_day(day), DayRange{day, day});
    if (!inserted) {
      it->second.first_day = std::min(it->second.first_day, day);
      it->second.last_day = std::max(it->second.last_day, day);
    }
  }
  std::map<int, std::vector<AtypicalCluster>> level;
  for (const auto& [unit, range] : units) {
    std::vector<AtypicalCluster> input;
    for (const AtypicalCluster* micro : forest.MicrosInRange(range)) {
      input.push_back(WithTemporalKeyMode(*micro, forest.time_grid(),
                                          TemporalKeyMode::kTimeOfDay));
    }
    level.emplace(unit, IntegrateClusters(std::move(input),
                                          forest.params().integration, ids));
  }
  return level;
}

}  // namespace atypical
