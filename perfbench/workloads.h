// Workload entry points and the helpers they share.
//
// RunX measures workload X untraced and reports the end-to-end metrics.
// TraceX reports the per-layer metrics of the layers X exercises, from
// fixed-count traced passes; with `own` set (X is the workload named on the
// command line) it also runs an untraced reference pass, prints the ledger
// and reports the bench.* metrics.  The exception is
// bench.unexplained_us_per_input on wire_fleet: the fleet's spans tile each
// frame's latency, so its ledger has no remainder, and the metric comes from
// the ui_wire pass instead (TraceUi with `ledger` set).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/common.h"
#include "src/tcl/interp.h"
#include "src/xsim/server.h"

namespace perfbench {

void RunUi(const RunOptions& options, bool wire, Report& report);
void TraceUi(const RunOptions& options, bool wire, bool own, bool ledger, Report& report);
void RunScript(const RunOptions& options, Report& report);
void TraceScript(const RunOptions& options, bool own, Report& report);
void RunFleet(const RunOptions& options, Report& report);
void TraceFleet(const RunOptions& options, bool own, Report& report);

// The Tcl source the ui workloads evaluate at set-up.
const char* UiScriptSource();
// FNV-1a over every framebuffer pixel.
uint64_t RasterHash(const xsim::Server& server);
// Median no-op Display::Sync on an otherwise idle wire connection.
double IdleWireRttUs();

std::string Hex(uint64_t value);
const char* ExecModeName(const tcl::Interp& interp);

// Prints the "where the time went" table for ops rooted at spans named
// `op_name`: self time per layer per op, a layer being the span name up to
// its first '.'.  Returns the root spans' own (unexplained) time, us per op.
double PrintLedger(const char* workload, const Tracer& tracer, const char* op_name);
// Writes the traced run's spans under options.trace_dir.
void DumpSpans(const RunOptions& options, const char* workload, const Tracer& tracer,
               Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
