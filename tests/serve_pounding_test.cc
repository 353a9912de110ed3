// Many-readers / one-writer pounding: reader threads serve a rotating query
// mix (shifting day ranges, All/Pru/Gui in rotation) while the writer keeps
// staging new days, appending late batches to published days and
// publishing epochs.  Every reply must be bit-identical to a direct
// single-threaded engine run on the reply's own snapshot, whose day blocks
// are shared with earlier and later epochs.  Run under ThreadSanitizer
// (the tsan CI job runs the whole ctest suite, then this test repeatedly)
// this is the data-race proof for the serving layer; in a plain build it
// still verifies the served-equals-direct contract under real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/report.h"
#include "serve/query_service.h"
#include "serve_test_util.h"

namespace atypical {
namespace serve {
namespace {

TEST(ServePoundingTest, ReadersStayConsistentWhileWriterPublishes) {
  const std::unique_ptr<analytics::ExperimentContext> ctx =
      analytics::BuildContext(WorkloadScale::kTiny, 2,
                              analytics::DefaultForestParams(), 37);
  auto serving = MakeServing(*ctx, analytics::DefaultEngineOptions());

  // Split the generated records by day so the writer can drip them in.
  std::map<int, std::vector<AtypicalRecord>> by_day;
  const TimeGrid& grid = ctx->time_grid();
  for (const std::vector<AtypicalRecord>& month : ctx->monthly_atypical) {
    for (const AtypicalRecord& r : month) {
      by_day[grid.DayOfWindow(r.window)].push_back(r);
    }
  }

  // Seed the first day so readers have data from the start.
  auto day_it = by_day.begin();
  ASSERT_NE(day_it, by_day.end());
  serving->staging_forest()->AddDay(day_it->first, day_it->second);
  ++day_it;
  serving->PublishSnapshot();

  QueryService service(serving.get());

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 150;
  std::atomic<int> mismatches{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      QueryScratch scratch;  // warm per-thread scratch, the serving idiom
      const ServeStrategy strategies[] = {
          ServeStrategy::kAll, ServeStrategy::kPrune, ServeStrategy::kGuided};
      for (int i = 0; i < kQueriesPerReader; ++i) {
        // Three day ranges in rotation, each answered against whichever
        // epoch is current when the request lands.
        AnalyticalQuery query = ctx->WholeAreaQuery(14);
        query.days = DayRange{(i % 3) * 2, (i % 3) * 2 + 6};
        const ServeStrategy strategy =
            strategies[(reader + i) % std::size(strategies)];

        const ServeReply reply = service.ServeQuery(query, strategy, &scratch);
        ASSERT_NE(reply.result, nullptr);
        ASSERT_NE(reply.snapshot, nullptr);

        // The contract, checked against the exact snapshot served: a
        // direct, single-threaded run must agree bit for bit.
        const QueryResult direct =
            reply.snapshot->engine.Run(query, strategy, &scratch);
        if (!BitIdentical(*reply.result, direct)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread writer([&] {
    // Drip the remaining days in; every few publishes, replay the first
    // day as a late batch, so staging replaces a block that served epochs
    // share while readers query it.
    const auto first_day = by_day.begin();
    int publishes = 0;
    for (; day_it != by_day.end(); ++day_it) {
      serving->staging_forest()->AddDay(day_it->first, day_it->second);
      if (++publishes % 3 == 0) {
        serving->staging_forest()->AddDay(first_day->first, first_day->second);
      }
      serving->PublishSnapshot();
    }
    writer_done.store(true, std::memory_order_relaxed);
  });

  for (std::thread& t : readers) t.join();
  writer.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(writer_done.load());
  EXPECT_GT(serving->current_epoch(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace atypical
