#include "core/forest.h"

#include <algorithm>

#include "core/temporal_key.h"
#include "cube/hierarchy.h"
#include "obs/stats.h"
#include "obs/trace.h"
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
    // time integration merges similar clusters — and materialized
    // week/month levels are not refreshed automatically.
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

const DayProvenance* AtypicalForest::day_provenance(int day) const {
  const auto it = provenance_by_day_.find(day);
  return it == provenance_by_day_.end() ? nullptr : &it->second;
}

std::vector<int> AtypicalForest::Days() const {
  std::vector<int> days;
  days.reserve(days_.size());
  for (const auto& [day, _] : days_) days.push_back(day);
  return days;
}

const std::vector<AtypicalCluster>& AtypicalForest::MicrosOfDay(int day) const {
  const auto it = days_.find(day);
  CHECK(it != days_.end()) << "no micro-clusters for day " << day;
  return *it->second.micros;
}

std::vector<const AtypicalCluster*> AtypicalForest::MicrosInRange(
    const DayRange& range) const {
  std::vector<const AtypicalCluster*> out;
  for (auto it = days_.lower_bound(range.first_day);
       it != days_.end() && it->first <= range.last_day; ++it) {
    for (const AtypicalCluster& c : *it->second.micros) out.push_back(&c);
  }
  return out;
}

std::map<ClusterId, double> AtypicalForest::MicroSeverities(
    const DayRange& range) const {
  std::map<ClusterId, double> out;
  for (const AtypicalCluster* c : MicrosInRange(range)) {
    out.emplace(c->id, c->severity());
  }
  return out;
}

std::vector<AtypicalCluster> AtypicalForest::IntegrateRange(
    const DayRange& range) {
  std::vector<AtypicalCluster> input;
  for (const AtypicalCluster* micro : MicrosInRange(range)) {
    input.push_back(WithTemporalKeyMode(*micro, grid_,
                                        TemporalKeyMode::kTimeOfDay));
  }
  return IntegrateClusters(std::move(input), params_.integration, &ids_);
}

size_t AtypicalForest::MaterializeWeeks() {
  static obs::Counter* const weeks_materialized =
      obs::Registry()->GetCounter("forest.weeks_materialized");
  static obs::Histogram* const seconds =
      obs::Registry()->GetHistogram("forest.materialize_weeks_seconds");
  obs::TraceSpan span(seconds);
  macros_by_week_.clear();
  std::map<int, DayRange> weeks;
  for (const auto& [day, _] : days_) {
    auto [it, inserted] =
        weeks.emplace(cube::WeekOfDay(day), DayRange{day, day});
    if (!inserted) {
      it->second.first_day = std::min(it->second.first_day, day);
      it->second.last_day = std::max(it->second.last_day, day);
    }
  }
  size_t built = 0;
  for (const auto& [week, range] : weeks) {
    std::vector<AtypicalCluster> macros = IntegrateRange(range);
    built += macros.size();
    macros_by_week_.emplace(
        week, std::make_shared<Block::element_type>(std::move(macros)));
  }
  weeks_version_ = ++version_;
  weeks_materialized->Add(macros_by_week_.size());
  return built;
}

size_t AtypicalForest::MaterializeMonths(int days_per_month) {
  CHECK_GT(days_per_month, 0);
  static obs::Counter* const months_materialized =
      obs::Registry()->GetCounter("forest.months_materialized");
  static obs::Histogram* const seconds =
      obs::Registry()->GetHistogram("forest.materialize_months_seconds");
  obs::TraceSpan span(seconds);
  month_days_ = days_per_month;
  macros_by_month_.clear();
  std::map<int, DayRange> months;
  for (const auto& [day, _] : days_) {
    const int month = cube::MonthOfDay(day, days_per_month);
    auto [it, inserted] = months.emplace(month, DayRange{day, day});
    if (!inserted) {
      it->second.first_day = std::min(it->second.first_day, day);
      it->second.last_day = std::max(it->second.last_day, day);
    }
  }
  size_t built = 0;
  for (const auto& [month, range] : months) {
    std::vector<AtypicalCluster> macros = IntegrateRange(range);
    built += macros.size();
    macros_by_month_.emplace(
        month, std::make_shared<Block::element_type>(std::move(macros)));
  }
  months_version_ = ++version_;
  months_materialized->Add(macros_by_month_.size());
  return built;
}

const std::vector<AtypicalCluster>& AtypicalForest::MacrosOfWeek(
    int week) const {
  const auto it = macros_by_week_.find(week);
  CHECK(it != macros_by_week_.end()) << "week " << week << " not materialized";
  return *it->second;
}

const std::vector<AtypicalCluster>& AtypicalForest::MacrosOfMonth(
    int month) const {
  const auto it = macros_by_month_.find(month);
  CHECK(it != macros_by_month_.end())
      << "month " << month << " not materialized";
  return *it->second;
}

std::vector<int> AtypicalForest::MaterializedWeeks() const {
  std::vector<int> weeks;
  for (const auto& [week, _] : macros_by_week_) weeks.push_back(week);
  return weeks;
}

std::vector<int> AtypicalForest::MaterializedMonths() const {
  std::vector<int> months;
  for (const auto& [month, _] : macros_by_month_) months.push_back(month);
  return months;
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

bool AtypicalForest::DaysMutatedSince(int first_day, int last_day,
                                      uint64_t level_version) const {
  for (auto it = days_.lower_bound(first_day);
       it != days_.end() && it->first <= last_day; ++it) {
    if (it->second.version > level_version) return true;
  }
  return false;
}

bool AtypicalForest::WeekIsStale(int week) const {
  if (!macros_by_week_.contains(week)) return false;
  return DaysMutatedSince(week * 7, week * 7 + 6, weeks_version_);
}

bool AtypicalForest::MonthIsStale(int month) const {
  if (!macros_by_month_.contains(month) || month_days_ <= 0) return false;
  const int first = month * month_days_;
  return DaysMutatedSince(first, first + month_days_ - 1, months_version_);
}

uint64_t AtypicalForest::ByteSize() const {
  uint64_t bytes = 0;
  auto add = [&bytes](const Block& block) {
    for (const AtypicalCluster& c : *block) bytes += c.ByteSize();
  };
  for (const auto& [_, day] : days_) add(day.micros);
  for (const auto& [_, block] : macros_by_week_) add(block);
  for (const auto& [_, block] : macros_by_month_) add(block);
  return bytes;
}

AtypicalForest AtypicalForest::EpochCopy(const AtypicalForest* previous,
                                         uint64_t* copied) const {
  auto copy = [copied](const Block& block) {
    ++*copied;
    return std::make_shared<const std::vector<AtypicalCluster>>(*block);
  };
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
    leaves.micros = unchanged ? old->second.micros : copy(leaves.micros);
  }
  if (previous != nullptr && previous->weeks_version_ == weeks_version_) {
    epoch.macros_by_week_ = previous->macros_by_week_;
  } else {
    for (auto& [_, block] : epoch.macros_by_week_) block = copy(block);
  }
  if (previous != nullptr && previous->months_version_ == months_version_) {
    epoch.macros_by_month_ = previous->macros_by_month_;
  } else {
    for (auto& [_, block] : epoch.macros_by_month_) block = copy(block);
  }
  return epoch;
}

}  // namespace atypical
