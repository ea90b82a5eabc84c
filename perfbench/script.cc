// script: Tcl only, no display.  Each job runs a proc-heavy word tally over
// a fresh seeded ~400-line corpus through Interp::Eval (split / foreach /
// array / lsort -command / lindex / string / expr / format), so parse,
// compile, the VM and command bodies do nearly all the work.  After each job
// one never-seen proc is defined and called (the cold path: parse + compile
// + first run).  Every result is checked against a value computed here in
// C++ from the same inputs.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/tcl/compiler.h"
#include "src/tcl/interp.h"
#include "src/tcl/parser.h"

namespace perfbench {
namespace {

constexpr int kCorpusLines = 400;
constexpr int kVocabulary = 1500;
constexpr int kWarmupJobs = 3;
constexpr int kSetups = 5;
constexpr int kTracedJobs = 20;
constexpr int kColdSteps = 20;

const char* kJobScript = R"(
proc norm {w} {string tolower [string trim $w ".,;:"]}
proc bycount {a b} {
    set d [expr {[lindex $b 1] - [lindex $a 1]}]
    if {$d != 0} {return $d}
    string compare [lindex $a 0] [lindex $b 0]
}
proc job {corpus} {
    set n 0
    foreach line [split $corpus "\n"] {
        foreach w [split $line " "] {
            set w [norm $w]
            if {$w == ""} continue
            incr n
            if {[info exists cnt($w)]} {incr cnt($w)} else {set cnt($w) 1}
        }
    }
    set pairs {}
    foreach w [array names cnt] {lappend pairs [list $w $cnt($w)]}
    set out {}
    foreach p [lrange [lsort -command bycount $pairs] 0 9] {
        lappend out [format "%s:%d" [lindex $p 0] [lindex $p 1]]
    }
    list $n $out
}
)";

struct Job {
  std::string corpus;
  std::string expected;
};

std::vector<std::string> Vocabulary(uint64_t seed) {
  Rng rng(SubSeed(seed, 52));
  std::vector<std::string> vocab;
  for (int i = 0; i < kVocabulary; ++i) {
    std::string word;
    int len = 2 + static_cast<int>(rng.Below(8));
    for (int j = 0; j < len; ++j) {
      word += static_cast<char>('a' + rng.Below(26));
    }
    vocab.push_back(word);
  }
  return vocab;
}

// The job's Tcl result computed from the same corpus: word count, then the
// ten most frequent normalised words (ties by string compare) as word:count.
std::string ExpectedResult(const std::vector<std::string>& words) {
  std::map<std::string, int> counts;
  for (const std::string& w : words) {
    ++counts[w];
  }
  std::vector<std::pair<std::string, int>> pairs(counts.begin(), counts.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<std::string> top;
  for (size_t i = 0; i < pairs.size() && i < 10; ++i) {
    top.push_back(pairs[i].first + ":" + std::to_string(pairs[i].second));
  }
  std::string list;
  for (size_t i = 0; i < top.size(); ++i) {
    list += (i == 0 ? "" : " ") + top[i];
  }
  std::string element = top.size() == 1 ? list : "{" + list + "}";
  return std::to_string(words.size()) + " " + element;
}

Job MakeJob(uint64_t seed, const std::vector<std::string>& vocab, uint64_t index) {
  Rng rng(SubSeed(seed, 51, index));
  Job job;
  std::vector<std::string> normalised;
  for (int line = 0; line < kCorpusLines; ++line) {
    if (line != 0) {
      job.corpus += '\n';
    }
    if (rng.Below(20) == 0) {
      continue;  // Blank line.
    }
    int words = 4 + static_cast<int>(rng.Below(11));
    for (int w = 0; w < words; ++w) {
      // Skewed ranks, so the top ten are well separated from the tail.
      uint32_t rank = rng.Below(rng.Below(kVocabulary) + 1);
      std::string word = vocab[rank];
      normalised.push_back(word);
      if (rng.Below(10) == 0) {
        word[0] = static_cast<char>(word[0] - 'a' + 'A');
      }
      if (rng.Below(12) == 0) {
        word += ".,;:"[rng.Below(4)];
      }
      job.corpus += (w == 0 ? "" : " ") + word;
    }
  }
  job.expected = ExpectedResult(normalised);
  return job;
}

// A never-seen proc of kColdSteps seeded arithmetic/string steps plus one
// call, with its expected result.
Job MakeCold(uint64_t seed, uint64_t index) {
  Rng rng(SubSeed(seed, 53, index));
  std::string name = "cold_" + std::to_string(index);
  int64_t x = rng.Below(1000);
  int64_t acc = x;
  std::string body = "    set acc $x\n";
  for (int i = 0; i < kColdSteps; ++i) {
    int64_t c = 1 + rng.Below(999);
    switch (rng.Below(4)) {
      case 0:
        body += "    incr acc " + std::to_string(c) + "\n";
        acc += c;
        break;
      case 1:
        body += "    set acc [expr {($acc * " + std::to_string(c) + ") % 1000003}]\n";
        acc = (acc * c) % 1000003;
        break;
      case 2: {
        std::string word(1 + rng.Below(9), 'q');
        body += "    set acc [expr {$acc + [string length \"" + word + "\"]}]\n";
        acc += static_cast<int64_t>(word.size());
        break;
      }
      default:
        body += "    if {$acc % 2} {incr acc} else {incr acc 3}\n";
        acc += acc % 2 != 0 ? 1 : 3;
        break;
    }
  }
  Job job;
  job.corpus = "proc " + name + " {x} {\n" + body + "    return $acc\n}\n" + name + " " +
               std::to_string(x);
  job.expected = std::to_string(acc);
  return job;
}

class ScriptSession {
 public:
  ScriptSession(uint64_t seed, const std::string& mutate)
      : seed_(seed), mutate_(mutate), vocab_(Vocabulary(seed)) {}

  bool Setup(Report& report) {
    interp_ = std::make_unique<tcl::Interp>();
    if (interp_->Eval(kJobScript) != tcl::Code::kOk) {
      report.Problem("script: job procs failed to load: " + interp_->result());
      return false;
    }
    for (int i = 0; i < kWarmupJobs; ++i) {
      RunJob(nullptr, report);
      RunCold(nullptr, report);
    }
    return report.correct;
  }

  // Runs the next job; returns its Interp::Eval time in us.
  double RunJob(Tracer* tracer, Report& report) {
    Job job = MakeJob(seed_, vocab_, jobs_++);
    if (mutate_ == "script_job") {
      job.expected += "x";
    }
    interp_->SetVar("corpus", std::move(job.corpus));
    uint64_t cmds = interp_->command_count();
    int64_t t0 = NowNs();
    tcl::Code code;
    {
      Scope op(tracer, "bench.job");
      Scope scope(tracer, "tcl.eval");
      code = interp_->Eval("job $corpus");
    }
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    last_cmds_ = interp_->command_count() - cmds;
    outputs_.Add(interp_->result());
    ++report.attempted;
    if (code != tcl::Code::kOk || interp_->result() != job.expected) {
      report.FailOp("script: job " + std::to_string(jobs_ - 1) + " returned \"" +
                    interp_->result().substr(0, 80) + "\"");
    }
    return us;
  }

  // Defines and calls the next never-seen proc; returns the Eval time in us.
  double RunCold(Tracer* tracer, Report& report) {
    Job cold = MakeCold(seed_, colds_++);
    int64_t t0 = NowNs();
    tcl::Code code;
    {
      Scope op(tracer, "bench.cold");
      Scope scope(tracer, "tcl.eval");
      code = interp_->Eval(cold.corpus);
    }
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    ++report.attempted;
    if (code != tcl::Code::kOk || interp_->result() != cold.expected) {
      report.FailOp("script: cold proc " + std::to_string(colds_ - 1) + " returned \"" +
                    interp_->result() + "\"");
    }
    std::string result = interp_->result();
    outputs_.Add(result);
    interp_->Eval("rename cold_" + std::to_string(colds_ - 1) + " {}");
    interp_->SetResult(std::move(result));
    return us;
  }

  tcl::Interp& interp() { return *interp_; }
  // Digest of every job and cold-proc result so far.
  uint64_t digest() const { return outputs_.value(); }
  uint64_t last_cmds() const { return last_cmds_; }

 private:
  uint64_t seed_;
  std::string mutate_;
  std::vector<std::string> vocab_;
  std::unique_ptr<tcl::Interp> interp_;
  uint64_t jobs_ = 0;
  uint64_t colds_ = 0;
  uint64_t last_cmds_ = 0;
  Fnv outputs_;
};

std::unique_ptr<ScriptSession> SetUpScript(const RunOptions& options, Report& report,
                                           int setups) {
  std::vector<double> setup_s;
  std::unique_ptr<ScriptSession> session;
  for (int i = 0; i < setups; ++i) {
    session.reset();
    int64_t t0 = NowNs();
    session = std::make_unique<ScriptSession>(options.seed, options.mutate);
    bool ok = session->Setup(report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ok) {
      return nullptr;
    }
  }
  report.Metric("setup_s", Median(setup_s), "s");
  return session;
}

// ns per iteration of `body` in a 20000-iteration for loop, net of the
// empty loop.
double LoopNs(tcl::Interp& interp, const std::string& body) {
  auto time_loop = [&interp](const std::string& b) {
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t0 = NowNs();
      interp.Eval("for {set i 0} {$i < 20000} {incr i} {" + b + "}");
      ns.push_back(static_cast<double>(NowNs() - t0) / 20000);
    }
    return Median(ns);
  };
  return time_loop(body) - time_loop("");
}

}  // namespace

void RunScript(const RunOptions& options, Report& report) {
  std::unique_ptr<ScriptSession> session = SetUpScript(options, report, kSetups);
  if (!session) {
    return;
  }
  report.Note("digest", Hex(session->digest()));
  report.Note("tcl_exec_mode", ExecModeName(session->interp()));
  std::vector<double> job_us;
  std::vector<int64_t> job_end_ns;
  std::vector<double> cold_us;
  int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  while (NowNs() < deadline) {
    job_us.push_back(session->RunJob(nullptr, report));
    job_end_ns.push_back(NowNs());
    cold_us.push_back(session->RunCold(nullptr, report));
  }
  report.Note("jobs", std::to_string(job_us.size()));
  report.Metric("op_p50_us", Median(job_us), "us");
  report.Note("op_p90_us", std::to_string(Quantile(job_us, 0.9)));
  report.Note("op_p99_us", std::to_string(Quantile(job_us, 0.99)));
  report.Metric("ops_per_s", WindowedRate(job_us, job_end_ns, 1.0), "1/s");
  report.Metric("aux_p50_us", Median(cold_us), "us");
}

void TraceScript(const RunOptions& options, bool own, Report& report) {
  Report scratch;
  std::unique_ptr<ScriptSession> session = SetUpScript(options, scratch, 1);
  if (!session) {
    for (const std::string& problem : scratch.problems) {
      report.Problem(problem);
    }
    return;
  }
  tcl::Interp& interp = session->interp();
  Tracer tracer;
  std::vector<double> traced_us;
  uint64_t cmds = 0;
  tcl::EvalCacheStats cache_before = interp.eval_cache_stats();
  for (int i = 0; i < kTracedJobs; ++i) {
    tracer.set_op(static_cast<uint64_t>(i));
    traced_us.push_back(session->RunJob(&tracer, report));
    cmds += session->last_cmds();
    session->RunCold(&tracer, report);
  }
  tcl::EvalCacheStats cache_after = interp.eval_cache_stats();
  // Untraced reference pass, after the traced one so the traced jobs are
  // the same whichever workload was named.
  std::vector<double> plain_us;
  if (own) {
    for (int i = 0; i < kTracedJobs; ++i) {
      plain_us.push_back(session->RunJob(nullptr, report));
      session->RunCold(nullptr, report);
    }
    report.Note("digest", Hex(session->digest()));
  }

  std::string ui_source = UiScriptSource();
  std::vector<double> parse_us;
  std::vector<double> compile_us;
  for (int rep = 0; rep < 200; ++rep) {
    int64_t t0 = NowNs();
    auto job_parsed = tcl::ParseScript(kJobScript);
    auto ui_parsed = tcl::ParseScript(ui_source);
    int64_t t1 = NowNs();
    auto job_compiled = tcl::CompileScript(job_parsed);
    auto ui_compiled = tcl::CompileScript(ui_parsed);
    int64_t t2 = NowNs();
    if (!job_parsed->ok || !ui_parsed->ok || !job_compiled || !ui_compiled) {
      report.Problem("script: job or UI source failed to parse or compile");
      break;
    }
    parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    compile_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  interp.Eval("proc noop {} {}");
  double proc_call_ns = LoopNs(interp, "noop");
  interp.Eval("set l {}; for {set i 0} {$i < 1000} {incr i} {lappend l item$i}");
  double lindex_ns = LoopNs(interp, "lindex $l 500");

  double job_total_us = 0;
  for (double us : traced_us) {
    job_total_us += us;
  }
  uint64_t hits = cache_after.hits - cache_before.hits;
  uint64_t lookups = hits + cache_after.misses - cache_before.misses;
  report.Metric("tcl.parse_us", Median(parse_us), "us");
  report.Metric("tcl.compile_us", Median(compile_us), "us");
  report.Metric("tcl.cmds_per_job", static_cast<double>(cmds) / kTracedJobs, "count");
  report.Metric("tcl.ns_per_cmd", job_total_us * 1e3 / static_cast<double>(cmds), "ns");
  report.Metric("tcl.proc_call_ns", proc_call_ns, "ns");
  report.Metric("tcl.lindex_ns", lindex_ns, "ns");
  report.Metric("tcl.evalcache_hit_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
                "ratio");
  if (own) {
    report.Metric("bench.unexplained_us_per_input",
                  PrintLedger("script", tracer, "bench.job"), "us");
    double plain = Median(plain_us);
    report.Metric("bench.trace_overhead_pct", (Median(traced_us) - plain) / plain * 100.0,
                  "%");
    DumpSpans(options, "script", tracer, report);
  }
}

}  // namespace perfbench
