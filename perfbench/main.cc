// The repository benchmark binary.
//
//   perfbench --workload <ui_wire|ui_local|script|wire_fleet> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>] [--git-sha <sha>]
//             [--mutate <check>] [--stall-ms <ms>]
//
// --trace 0 measures the named workload untraced and reports the end-to-end
// metrics.  --trace 1 reports the per-layer metrics instead: the named
// workload runs an untraced reference pass and a traced pass (ledger,
// unexplained remainder, tracing overhead), and fixed-count traced passes of
// the other workloads price the layers the named one does not exercise.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics.  Exit status: 0 all checks passed, 1 a check failed, 2 bad usage.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/tcl/interp.h"
#include "src/xsim/wire/wire_server.h"

namespace perfbench {

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

const char* ExecModeName(const tcl::Interp& interp) {
  return interp.exec_mode() == tcl::ExecMode::kCompile ? "compile" : "interp";
}

double PrintLedger(const char* workload, const Tracer& tracer, const char* op_name) {
  size_t roots = 0;
  std::map<std::string, double> self = tracer.SelfTimeUnder(op_name, &roots);
  if (roots == 0) {
    return 0;
  }
  double ops = static_cast<double>(roots);
  double op_us = 0;
  double unexplained_us = 0;
  std::map<std::string, double> layer_us;
  for (const auto& [name, ns] : self) {
    double us = ns / 1e3 / ops;
    op_us += us;
    if (name == op_name) {
      unexplained_us = us;
    } else {
      layer_us[name.substr(0, name.find('.'))] += us;
    }
  }
  std::printf("ledger %s: %zu ops rooted at %s, %.3f us/op traced\n", workload, roots, op_name,
              op_us);
  std::printf("  %-12s %12s %8s\n", "layer", "self us/op", "share");
  for (const auto& [layer, us] : layer_us) {
    std::printf("  %-12s %12.3f %7.1f%%\n", layer.c_str(), us, us / op_us * 100);
  }
  std::printf("  %-12s %12.3f %7.1f%%\n", "unexplained", unexplained_us,
              unexplained_us / op_us * 100);
  return unexplained_us;
}

void DumpSpans(const RunOptions& options, const char* workload, const Tracer& tracer,
               Report& report) {
  if (options.trace_dir.empty()) {
    return;
  }
  std::string path = options.trace_dir + "/" + workload + "-seed" +
                     std::to_string(options.seed) + ".spans.tsv";
  report.Note("spans", tracer.Dump(path) ? path : "not written (" + path + ")");
}

namespace {

const char* const kEndToEnd[] = {"setup_s", "op_p50_us", "ops_per_s", "aux_p50_us"};

const char* const kPerLayer[] = {
    "tcl.parse_us",
    "tcl.compile_us",
    "tcl.cmds_per_job",
    "tcl.ns_per_cmd",
    "tcl.proc_call_ns",
    "tcl.lindex_ns",
    "tcl.evalcache_hit_ratio",
    "tk.dispatch_us_per_input",
    "tk.idle_us_per_input",
    "tk.bind_matches_per_input",
    "tk.redraws_per_input",
    "tk.repacks_per_input",
    "tk.pack_arrange_us",
    "tk.dialog_create_ms",
    "tk.dialog_destroy_ms",
    "tk.resource_cache_hit_ratio",
    "pipeline.requests_per_input",
    "pipeline.flushes_per_input",
    "pipeline.round_trips_per_input",
    "pipeline.round_trips_per_dialog",
    "pipeline.flush_us",
    "pipeline.sync_us",
    "wire.frames_per_input",
    "wire.idle_rtt_us",
    "wire.bytes_per_req",
    "wire.encode_ns_per_req",
    "wire.decode_ns_per_req",
    "wire.peak_outbound_depth",
    "wire.backpressure_kills",
    "wire.backlog_max",
    "server.apply_ns_per_req",
    "server.apply_sharded_ns_per_req",
    "server.raster_fill_ns_per_kpx",
    "bench.gen_late_p99_us",
    "bench.unexplained_us_per_input",
    "bench.trace_overhead_pct",
};

const char* const kWorkloads[] = {"ui_wire", "ui_local", "script", "wire_fleet"};

int Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <ui_wire|ui_local|script|wire_fleet> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--git-sha <sha>] "
               "[--mutate <check>] [--stall-ms <ms>]\n");
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// JSON string escaping for the few free-form strings the result carries.
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string git_sha = "unknown";
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &number)) {
        return Usage("bad --seed \"" + value + "\": want a non-negative integer");
      }
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 3600, &number) || number == 0) {
        return Usage("bad --seconds \"" + value + "\": want an integer in 1..3600");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("bad --trace \"" + value + "\": want 0 or 1");
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--mutate") {
      options.mutate = value;
    } else if (flag == "--stall-ms") {
      if (!ParseUnsigned(value, 10000, &number)) {
        return Usage("bad --stall-ms \"" + value + "\"");
      }
      options.stall_ms = static_cast<int>(number);
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || workload.empty()) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* name : kWorkloads) {
    known = known || workload == name;
  }
  if (!known) {
    return Usage("unknown workload \"" + workload + "\"");
  }

#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  tcl::Interp probe_interp;
  std::printf("host: {\"cores\": %u, \"compiler\": %s, \"build_type\": %s, \"git_sha\": %s, "
              "\"wire_backend\": %s, \"tcl_exec_mode\": %s}\n",
              std::thread::hardware_concurrency(), Quote(compiler).c_str(),
              Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(git_sha).c_str(),
              Quote(xsim::wire::WireBackendName(xsim::wire::WireBackendFromEnv())).c_str(),
              Quote(ExecModeName(probe_interp)).c_str());
  std::printf("workload: %s seed %llu seconds %.0f trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  bool ui = workload == "ui_wire" || workload == "ui_local";
  if (!options.trace) {
    if (ui) {
      RunUi(options, workload == "ui_wire", report);
    } else if (workload == "script") {
      RunScript(options, report);
    } else {
      RunFleet(options, report);
    }
  } else {
    // The named workload first (it owns the bench.* metrics), then the
    // other layers' fixed-count passes.
    if (ui) {
      TraceUi(options, workload == "ui_wire", true, true, report);
    } else if (workload == "script") {
      TraceScript(options, true, report);
    } else {
      TraceFleet(options, true, report);
    }
    if (!ui) {
      TraceUi(options, /*wire=*/true, false, /*ledger=*/workload == "wire_fleet", report);
    }
    if (workload != "script") {
      TraceScript(options, false, report);
    }
    if (workload != "wire_fleet") {
      TraceFleet(options, false, report);
    }
  }

  std::set<std::string> want;
  if (options.trace) {
    want.insert(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    want.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::set<std::string> got;
  for (const auto& [name, value] : report.metrics) {
    got.insert(name);
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.first)) {
      report.Problem("metric " + name + " is not a finite number");
    }
  }
  if (report.correct && got != want) {
    report.Problem("internal: the run did not produce exactly the declared metric set");
  }

  for (const auto& [key, value] : report.notes) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.first) ? metric.first : 0.0);
    json += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + value +
            ", \"unit\": " + Quote(metric.second) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
