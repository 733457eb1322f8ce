// perfbench: the end-to-end benchmark binary. Runs one named workload from
// a seed on a thread budget it sets itself, checks the program's answers
// against an independent reference, and prints one JSON result line:
//
//   perfbench --workload engine_churn|tier_serve|window_stream --seed N
//             --seconds S --trace 0|1 [--tiny 1] [--work-dir DIR]
//
// --seconds fixes the amount of work (rounds, requests or epochs), never a
// deadline: the same arguments give the same operation sequence. --trace 1
// reports the per-layer metrics the workload measures instead of the
// end-to-end ones. --tiny 1 shrinks every size for sanitizer runs. Journal
// and snapshot files go to --work-dir and are removed before exit.
//
// stdout carries two lines: "# record {...}" (seed, thread budget, sizes,
// sample counts, input digest and exact counts) and the result line
// {"correct", "attempted", "failed", "metrics"}. Progress goes to stderr.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/common.hpp"

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const std::map<std::string, perfbench::Metric>& metrics,
                   std::string& out) {
  out += "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine_churn|tier_serve|window_stream --seed N --seconds S "
               "--trace 0|1 [--tiny 0|1] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--tiny") {
      if (value != "0" && value != "1") usage("--tiny must be 0 or 1");
      opt.tiny = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Result r;
  try {
    if (opt.workload == "engine_churn") {
      perfbench::run_engine_churn(opt, r);
    } else if (opt.workload == "tier_serve") {
      perfbench::run_tier_serve(opt, r);
    } else if (opt.workload == "window_stream") {
      perfbench::run_window_stream(opt, r);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& m : r.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", m.c_str());
  }
  std::string record = "# record {";
  for (std::size_t i = 0; i < r.record.size(); ++i) {
    if (i != 0) record += ", ";
    record += json_string(r.record[i].first) + ": " +
              json_string(r.record[i].second);
  }
  record += "}\n";
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": ";
  print_metrics(opt.trace ? r.per_layer : r.end_to_end, line);
  line += "}\n";
  std::fputs(record.c_str(), stdout);
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}
