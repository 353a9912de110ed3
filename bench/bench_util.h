// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints (a) what it reproduces and which shape the paper
// reports, (b) an aligned results table, and (c) writes the table as CSV to
// bench_results/ so the series can be re-plotted.
#ifndef ATYPICAL_BENCH_BENCH_UTIL_H_
#define ATYPICAL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "obs/snapshot.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {
namespace bench {

// Times a bench region through the same obs histograms the pipeline uses:
// each measurement also lands in the "bench.<name>.seconds" histogram, so a
// --stats-style snapshot of a bench run shows its timing distribution next
// to the pipeline's own.
class BenchTimer {
 public:
  explicit BenchTimer(const std::string& name)
      : span_(obs::Registry()->GetHistogram("bench." + name + ".seconds")) {}

  // Both stop the span (idempotent) and return the elapsed reading.
  double StopSeconds() { return span_.Stop(); }
  double StopMillis() { return span_.Stop() * 1e3; }

 private:
  obs::TraceSpan span_;
};

// Number of synthetic months used by year-scale benches; override with
// ATYPICAL_BENCH_MONTHS for quicker runs.
inline int BenchMonths(int default_months = 12) {
  const char* env = std::getenv("ATYPICAL_BENCH_MONTHS");
  if (env == nullptr) return default_months;
  const int64_t v = ParseInt64(env);
  return v > 0 ? static_cast<int>(v) : default_months;
}

inline void PrintHeader(const std::string& figure,
                        const std::string& description,
                        const std::string& paper_shape) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("paper shape: %s\n", paper_shape.c_str());
  std::printf("==================================================\n");
}

// Median of the raw samples; the summary stores both so plots can show
// spread while CI compares one number.
inline double MedianSeconds(std::vector<double> samples) {
  CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// Machine-readable companion to EmitTable's CSV: series name → raw timing
// samples plus their median, and a flat counters map.  Written to
// bench_results/<bench>_summary.json (schema_version 1, schema
// scripts/bench_summary_schema.json, validated by
// scripts/check_bench_summary.py in the bench-smoke CI job), so tooling
// consumes one stable format instead of scraping bench stdout.
class BenchSummary {
 public:
  explicit BenchSummary(std::string bench) : bench_(std::move(bench)) {}

  void AddSample(const std::string& series, double seconds) {
    series_[series].push_back(seconds);
  }
  void AddCounter(const std::string& name, uint64_t value) {
    counters_[name] = value;
  }

  void WriteJson() const {
    ::mkdir("bench_results", 0755);
    const std::string path = "bench_results/" + bench_ + "_summary.json";
    std::string out = "{\n  \"schema_version\": 1,\n  \"bench\": ";
    AppendJsonString(bench_, &out);
    out += ",\n  \"series\": {";
    bool first = true;
    for (const auto& [name, samples] : series_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    ";
      AppendJsonString(name, &out);
      out += StrPrintf(": {\"median_seconds\": %.9g, \"samples\": [",
                       MedianSeconds(samples));
      for (size_t i = 0; i < samples.size(); ++i) {
        out += StrPrintf(i == 0 ? "%.9g" : ", %.9g", samples[i]);
      }
      out += "]}";
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"counters\": {";
    first = true;
    for (const auto& [name, value] : counters_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    ";
      AppendJsonString(name, &out);
      out += StrPrintf(": %llu", (unsigned long long)value);
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    std::ofstream file(path, std::ios::trunc);
    file << out;
    if (file) {
      std::printf("(summary written to %s)\n", path.c_str());
    } else {
      std::printf("(summary not written: cannot open %s)\n", path.c_str());
    }
  }

 private:
  static void AppendJsonString(const std::string& s, std::string* out) {
    out->push_back('"');
    for (const char c : s) {
      if (c == '"' || c == '\\') out->push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        *out += StrPrintf("\\u%04x", c);
      } else {
        out->push_back(c);
      }
    }
    out->push_back('"');
  }

  std::string bench_;
  std::map<std::string, std::vector<double>> series_;  // seconds
  std::map<std::string, uint64_t> counters_;
};

inline void EmitTable(const std::string& name, const Table& table) {
  std::printf("\n%s\n", table.ToAlignedString().c_str());
  ::mkdir("bench_results", 0755);
  const std::string path = "bench_results/" + name + ".csv";
  const Status s = table.WriteCsv(path);
  if (s.ok()) {
    std::printf("(csv written to %s)\n", path.c_str());
  } else {
    std::printf("(csv not written: %s)\n", s.ToString().c_str());
  }
}

// Benches accept the same --stats[=text|json] [--stats-out FILE] contract
// as atypical_cli, so CI can snapshot their counters (e.g. the similarity
// pruning counters) with the schema checker.  Returns 0 on success, 2 on a
// malformed flag value or unwritable --stats-out path; no-op without
// --stats.
inline int DumpStatsIfRequested(const FlagParser& flags) {
  if (!flags.Has("stats")) return 0;
  const std::string mode = flags.GetString("stats", "text");
  std::string rendered;
  const obs::StatsSnapshot snapshot = obs::Registry()->Snapshot();
  if (mode == "json") {
    rendered = snapshot.ToJson();
  } else if (mode == "text" || mode == "true") {  // bare --stats
    rendered = snapshot.ToText();
  } else {
    std::fprintf(stderr, "--stats expects text or json, got: %s\n",
                 mode.c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("stats-out", "");
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::trunc);
  out << rendered;
  if (!out) {
    std::fprintf(stderr, "cannot write --stats-out file: %s\n",
                 out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace bench
}  // namespace atypical

#endif  // ATYPICAL_BENCH_BENCH_UTIL_H_
