// ui_wire / ui_local: the paper's interactive path.  One tk::App runs the
// fig9 browser (listbox + scrollbar), a text widget preloaded with a seeded
// 20k-line buffer, and a button whose -command is a Tcl proc updating a
// label.  A closed-loop user injects seeded input at the server; one input
// ends when App::Update() is idle and Display::Sync() has returned.  Every
// 100th action opens and closes a 50-button dialog instead (Table II row 3).
//
// Outputs are checked against a benchmark-side model that applies the same
// seeded actions with the text widget's insert-mark semantics, so nothing
// checked depends on timing.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/tk/app.h"
#include "src/tk/pack.h"
#include "src/tk/widget.h"
#include "src/xsim/keysym.h"
#include "src/xsim/server.h"
#include "src/xsim/wire/wire_server.h"

namespace perfbench {
namespace {

constexpr int kBufferLines = 20000;
constexpr int kStartLine = 10000;  // Insert mark starts mid-buffer (Tk line 10001).
constexpr int kListItems = 200;
constexpr int kDialogEvery = 100;
constexpr int kWarmupActions = 300;
constexpr int kSetups = 3;
constexpr int kTracedActions = 2000;
constexpr int kFlushProbeBatches = 200;
constexpr int kFlushProbeRequests = 32;

const char* kUiScript = R"(
text .t -width 60 -height 24
scrollbar .scroll -command ".list view"
listbox .list -scroll ".scroll set" -relief raised -geometry 20x20
button .b -text Press -command press
label .status -text "pressed 0"
pack append . .status {top fillx} .b {top} .scroll {right filly} .list {left filly} .t {left expand fill}
set presses 0
set keys 0
bind .t <KeyPress> {incr keys; set lastkey %K}
proc press {} {
    global presses
    incr presses
    .status configure -text "pressed $presses"
}
proc dialog_open {} {
    frame .dlg
    for {set i 0} {$i < 50} {incr i} {
        button .dlg.b$i -text "Button $i"
        pack append .dlg .dlg.b$i {top}
    }
    pack before .status .dlg {top}
}
foreach item $items {.list insert end $item}
.t insert 1.0 $buffer
.t mark set insert 10001.0
.t see insert
focus .t
)";

enum class Kind { kKey, kScrollUp, kScrollDown, kButton, kDialog };

struct Action {
  Kind kind = Kind::kKey;
  xsim::KeySym key = 0;
};

// The seeded user: ~70% typing/BackSpace/Return, 10% arrows, 10% scrollbar
// arrow clicks, 10% button clicks; every 100th action is a dialog cycle.
class ActionGen {
 public:
  explicit ActionGen(uint64_t seed) : rng_(SubSeed(seed, 11)) {}
  Action Next() {
    uint64_t i = index_++;
    if (i % kDialogEvery == kDialogEvery - 1) {
      return Action{Kind::kDialog, 0};
    }
    uint32_t r = rng_.Below(100);
    if (r < 70) {
      uint32_t t = rng_.Below(100);
      if (t < 84) {
        uint32_t c = rng_.Below(27);
        return Action{Kind::kKey, c == 26 ? xsim::KeySym{' '} : xsim::KeySym('a' + c)};
      }
      return Action{Kind::kKey, t < 93 ? xsim::kKeyBackSpace : xsim::kKeyReturn};
    }
    if (r < 80) {
      static constexpr xsim::KeySym kArrows[] = {xsim::kKeyLeft, xsim::kKeyRight, xsim::kKeyUp,
                                                 xsim::kKeyDown};
      return Action{Kind::kKey, kArrows[rng_.Below(4)]};
    }
    if (r < 90) {
      return Action{rng_.Below(2) == 0 ? Kind::kScrollUp : Kind::kScrollDown, 0};
    }
    return Action{Kind::kButton, 0};
  }

 private:
  Rng rng_;
  uint64_t index_ = 0;
};

// Expected state: buffer lines with the insert mark, the listbox's top
// index and the number of button presses.
struct Model {
  std::vector<std::string> lines;
  int line = kStartLine;
  int ch = 0;
  int list_top = 0;
  int presses = 0;
  int keys = 0;
  uint64_t updown_folds = 0;

  void Apply(const Action& action) {
    switch (action.kind) {
      case Kind::kScrollUp:
        list_top = std::max(0, list_top - 1);
        return;
      case Kind::kScrollDown:
        list_top = std::min(kListItems - 1, list_top + 1);
        return;
      case Kind::kButton:
        ++presses;
        return;
      case Kind::kDialog:
        return;
      case Kind::kKey:
        ++keys;
        break;
    }
    int last = static_cast<int>(lines.size()) - 1;
    std::string& cur = lines[line];
    switch (action.key) {
      case xsim::kKeyBackSpace:
        if (ch > 0) {
          cur.erase(ch - 1, 1);
          --ch;
        } else if (line > 0) {
          ch = static_cast<int>(lines[line - 1].size());
          lines[line - 1] += cur;
          lines.erase(lines.begin() + line);
          --line;
        }
        return;
      case xsim::kKeyReturn:
        lines.insert(lines.begin() + line + 1, cur.substr(ch));
        lines[line].resize(ch);
        ++line;
        ch = 0;
        return;
      case xsim::kKeyLeft:
        if (ch > 0) {
          --ch;
        } else if (line > 0) {
          --line;
          ch = static_cast<int>(lines[line].size());
        }
        return;
      case xsim::kKeyRight:
        if (ch < static_cast<int>(cur.size())) {
          ++ch;
        } else if (line < last) {
          ++line;
          ch = 0;
        }
        return;
      case xsim::kKeyUp:
      case xsim::kKeyDown: {
        line = std::clamp(line + (action.key == xsim::kKeyDown ? 1 : -1), 0, last);
        int len = static_cast<int>(lines[line].size());
        // Mirrors Text::HandleEvent, which normalises the moved position
        // before clamping the column: a column exactly one past the target
        // line's last character folds onto the start of the following line
        // instead of stopping at the end of the target line.  That is a
        // defect in the widget (Tk stops at the line end); the model follows
        // the widget so the check stays exact, and counts the cases.
        if (ch == len + 1 && line < last) {
          ++line;
          ch = 0;
          ++updown_folds;
        } else {
          ch = std::min(ch, len);
        }
        return;
      }
      default:
        cur.insert(cur.begin() + ch, static_cast<char>(action.key));
        ++ch;
        return;
    }
  }

  std::string Text() const {
    std::string out;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i != 0) {
        out += '\n';
      }
      out += lines[i];
    }
    return out;
  }
};

// Seeded inputs the program sees: the buffer text and the listbox items.
struct UiInputs {
  std::vector<std::string> lines;
  std::vector<std::string> items;
};

UiInputs MakeInputs(uint64_t seed) {
  Rng rng(SubSeed(seed, 12));
  std::vector<std::string> vocab;
  for (int i = 0; i < 500; ++i) {
    std::string word;
    int len = 2 + static_cast<int>(rng.Below(7));
    for (int j = 0; j < len; ++j) {
      word += static_cast<char>('a' + rng.Below(26));
    }
    vocab.push_back(word);
  }
  UiInputs in;
  in.lines.reserve(kBufferLines);
  for (int i = 0; i < kBufferLines; ++i) {
    std::string line;
    int words = static_cast<int>(rng.Below(10));
    for (int w = 0; w < words; ++w) {
      if (w != 0) {
        line += ' ';
      }
      line += vocab[rng.Below(static_cast<uint32_t>(vocab.size()))];
    }
    in.lines.push_back(line);
  }
  for (int i = 0; i < kListItems; ++i) {
    std::string item = "f";
    item += std::to_string(i);
    item += vocab[rng.Below(500)];
    in.items.push_back(item);
  }
  return in;
}

struct Point {
  int x = 0;
  int y = 0;
};

// Per-input counter snapshot (the sources of the traced run's count
// metrics).
struct Counters {
  uint64_t binds = 0;
  uint64_t redraws = 0;
  uint64_t repacks = 0;
  uint64_t requests = 0;
  uint64_t flushes = 0;
  uint64_t round_trips = 0;
  uint64_t frames = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

class UiSession {
 public:
  UiSession(uint64_t seed, bool wire) : seed_(seed), wire_(wire), gen_(seed) {}

  // Builds the UI, loads the buffer and runs the warm-up actions.  Returns
  // false (with a problem noted) if the initial state is not the expected
  // one.
  bool Setup(Report& report) {
    UiInputs in = MakeInputs(seed_);
    model_.lines = in.lines;
    app_ = std::make_unique<tk::App>(
        server_, "perfbench", wire_ ? xsim::wire::TransportKind::kWire
                                    : xsim::wire::TransportKind::kDirect);
    // Heartbeats are timer-driven liveness probes, not part of the user's
    // path; off, so frame counts depend only on the seed.
    app_->set_heartbeat_interval_ms(0);
    tcl::Interp& interp = app_->interp();
    std::string buffer = model_.Text();
    std::string items;
    for (const std::string& item : in.items) {
      items += item + " ";
    }
    interp.SetVar("buffer", std::move(buffer));
    interp.SetVar("items", std::move(items));
    if (interp.Eval(kUiScript) != tcl::Code::kOk) {
      report.Problem("ui setup script failed: " + interp.result());
      return false;
    }
    interp.UnsetVar("buffer");
    Settle(nullptr);
    button_ = Center(".b");
    tk::Widget* scroll = app_->FindWidget(".scroll");
    std::optional<xsim::Point> abs = server_.AbsolutePosition(scroll->window());
    scroll_up_ = Point{abs->x + scroll->width() / 2, abs->y + 2};
    scroll_down_ = Point{abs->x + scroll->width() / 2, abs->y + scroll->height() - 3};
    if (!Verify(report, "after setup")) {
      return false;
    }
    for (int i = 0; i < kWarmupActions; ++i) {
      Step();
    }
    return Verify(report, "after warm-up");
  }

  Action NextAction() {
    Action action = gen_.Next();
    model_.Apply(action);
    ++actions_;
    return action;
  }

  // Applies one action untimed (warm-up and replay).
  void Step() {
    Action action = NextAction();
    if (action.kind == Kind::kDialog) {
      DialogCycle(nullptr, nullptr, nullptr);
    } else {
      Inject(action, nullptr);
      Settle(nullptr);
    }
  }

  void Inject(const Action& action, Tracer* tracer) {
    Scope scope(tracer, "server.inject");
    switch (action.kind) {
      case Kind::kKey:
        server_.InjectKeystroke(action.key);
        break;
      case Kind::kScrollUp:
        Click(scroll_up_);
        break;
      case Kind::kScrollDown:
        Click(scroll_down_);
        break;
      case Kind::kButton:
        Click(button_);
        break;
      case Kind::kDialog:
        break;
    }
  }

  // App::Update() then Display::Sync().  The traced variant pumps the same
  // loop App::DoOneEvent runs (queue-depth probe, poll, dispatch, idle pass)
  // from here so each layer call gets its own span.
  void Settle(Tracer* tracer) {
    if (tracer == nullptr) {
      app_->Update();
      app_->display().Sync();
      return;
    }
    xsim::Display& display = app_->display();
    for (int i = 0; i < 10000; ++i) {
      size_t depth = 0;
      {
        Scope scope(tracer, "pipeline.pending");
        depth = display.PendingCount();
      }
      app_->loop_stats().NoteQueueDepth(depth);
      xsim::Event event;
      bool got = false;
      {
        Scope scope(tracer, "pipeline.poll");
        got = display.PollEvent(&event);
      }
      if (got) {
        Scope scope(tracer, "tk.dispatch");
        app_->DispatchEvent(event);
        continue;
      }
      const tk::EventLoopStats& stats = app_->loop_stats();
      uint64_t before = stats.repacks_done + stats.redraws_drawn + stats.idle_handlers_run;
      {
        Scope scope(tracer, "tk.idle");
        app_->UpdateIdleTasks();
      }
      if (stats.repacks_done + stats.redraws_drawn + stats.idle_handlers_run == before) {
        break;
      }
    }
    Scope scope(tracer, "pipeline.sync");
    display.Sync();
  }

  // Creates, packs, maps and paints 50 buttons, then destroys them.
  // Returns the total in ms; create/destroy parts via the out-params.
  double DialogCycle(Tracer* tracer, double* create_ms, double* destroy_ms) {
    int64_t t0 = NowNs();
    {
      Scope scope(tracer, "tcl.eval");
      app_->interp().Eval("dialog_open");
    }
    Settle(tracer);
    int64_t t1 = NowNs();
    {
      Scope scope(tracer, "tcl.eval");
      app_->interp().Eval("destroy .dlg");
    }
    Settle(tracer);
    int64_t t2 = NowNs();
    if (create_ms != nullptr) {
      *create_ms = static_cast<double>(t1 - t0) / 1e6;
    }
    if (destroy_ms != nullptr) {
      *destroy_ms = static_cast<double>(t2 - t1) / 1e6;
    }
    return static_cast<double>(t2 - t0) / 1e6;
  }

  uint64_t errors() const {
    return app_->display().error_count() + app_->background_error_count();
  }
  uint64_t actions() const { return actions_; }
  uint64_t updown_folds() const { return model_.updown_folds; }
  tk::App& app() { return *app_; }
  xsim::Server& server() { return server_; }

  Counters Snapshot() {
    Counters c;
    c.binds = app_->bindings().match_count();
    c.redraws = app_->loop_stats().redraws_drawn;
    c.repacks = app_->loop_stats().repacks_done;
    xsim::RequestCounters rc = server_.counters();
    c.requests = rc.total;
    c.flushes = rc.flushes;
    c.round_trips = rc.round_trips;
    xsim::WireCounters wc = server_.wire_counters();
    // Inbound only: the server counts a client frame before answering it,
    // so at Sync() every frame of the input is counted.  Outbound event
    // frames pushed after the last reply may be counted after the snapshot.
    c.frames = wc.frames_in;
    c.cache_hits = app_->resources().hits();
    c.cache_misses = app_->resources().misses();
    return c;
  }

  // Compares the program's visible state with the model.
  bool Verify(Report& report, const char* stage) {
    tcl::Interp& interp = app_->interp();
    bool ok = true;
    std::string expected_text = model_.Text();
    std::string expected_label = "pressed " + std::to_string(model_.presses);
    std::string expected_top = std::to_string(model_.list_top);
    std::string expected_keys = std::to_string(model_.keys);
    if (mutate_ == "ui_text") {
      expected_text += "x";
    } else if (mutate_ == "ui_list") {
      expected_top += "1";
    } else if (mutate_ == "ui_label") {
      expected_label += "1";
    } else if (mutate_ == "ui_keys") {
      expected_keys += "1";
    }
    auto check = [&](const char* script, const std::string& expected, const char* what) {
      if (interp.Eval(script) != tcl::Code::kOk || interp.result() != expected) {
        report.Problem(std::string("ui ") + what + " differs from the model " + stage);
        ok = false;
      }
    };
    check(".t get 1.0 end", expected_text, "text");
    check(".list view", expected_top, "listbox view");
    check("lindex [.status configure -text] 4", expected_label, "label");
    check("set keys", expected_keys, "key binding count");
    if (errors() != 0) {
      report.Problem("ui saw X or background errors " + std::string(stage));
      ok = false;
    }
    return ok;
  }

  // Digest of the checked outputs: text, listbox view, label, framebuffer.
  uint64_t Digest() {
    Fnv fnv;
    tcl::Interp& interp = app_->interp();
    for (const char* script :
         {".t get 1.0 end", ".list view", "lindex [.status configure -text] 4", "set keys"}) {
      interp.Eval(script);
      fnv.Add(interp.result());
    }
    fnv.Add(RasterHash(server_));
    return fnv.value();
  }

  void set_mutate(const std::string& mutate) { mutate_ = mutate; }

 private:
  Point Center(const char* path) {
    tk::Widget* widget = app_->FindWidget(path);
    std::optional<xsim::Point> abs = server_.AbsolutePosition(widget->window());
    return Point{abs->x + widget->width() / 2, abs->y + widget->height() / 2};
  }
  void Click(Point p) {
    server_.InjectPointerMove(p.x, p.y);
    server_.InjectClick(1);
  }

  uint64_t seed_;
  bool wire_;
  xsim::Server server_;
  std::unique_ptr<tk::App> app_;
  ActionGen gen_;
  Model model_;
  uint64_t actions_ = 0;
  Point button_;
  Point scroll_up_;
  Point scroll_down_;
  std::string mutate_;
};

std::unique_ptr<UiSession> SetUpSessions(const RunOptions& options, bool wire, Report& report,
                                         int setups) {
  std::vector<double> setup_s;
  std::unique_ptr<UiSession> session;
  for (int i = 0; i < setups; ++i) {
    session.reset();
    int64_t t0 = NowNs();
    session = std::make_unique<UiSession>(options.seed, wire);
    bool ok = session->Setup(report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ok) {
      return nullptr;
    }
  }
  report.Metric("setup_s", Median(setup_s), "s");
  session->set_mutate(options.mutate);
  return session;
}

// Untimed ui_local replay of the first `actions` actions of `seed`.
uint64_t ReplayLocalRasterHash(uint64_t seed, uint64_t actions, Report& report) {
  UiSession replay(seed, /*wire=*/false);
  if (!replay.Setup(report)) {
    return 0;
  }
  while (replay.actions() < actions) {
    replay.Step();
  }
  return RasterHash(replay.server());
}

// The measured closed loop: returns input latencies (us) and dialog cycle
// times (ms).
struct LoopResult {
  std::vector<double> input_us;
  std::vector<int64_t> input_end_ns;
  std::vector<double> dialog_ms;
};

LoopResult ClosedLoop(UiSession& session, double seconds, Report& report) {
  LoopResult out;
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    Action action = session.NextAction();
    uint64_t errors_before = session.errors();
    ++report.attempted;
    if (action.kind == Kind::kDialog) {
      out.dialog_ms.push_back(session.DialogCycle(nullptr, nullptr, nullptr));
    } else {
      int64_t t0 = NowNs();
      session.Inject(action, nullptr);
      session.Settle(nullptr);
      int64_t t1 = NowNs();
      out.input_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      out.input_end_ns.push_back(t1);
    }
    if (session.errors() != errors_before) {
      report.FailOp("ui action " + std::to_string(session.actions()) + " raised an error");
    }
  }
  return out;
}

}  // namespace

const char* UiScriptSource() { return kUiScript; }

uint64_t RasterHash(const xsim::Server& server) {
  const xsim::Raster& raster = server.raster();
  Fnv fnv;
  for (int y = 0; y < raster.height(); ++y) {
    for (int x = 0; x < raster.width(); ++x) {
      fnv.Add(static_cast<uint64_t>(raster.At(x, y)));
    }
  }
  return fnv.value();
}

void RunUi(const RunOptions& options, bool wire, Report& report) {
  std::unique_ptr<UiSession> session = SetUpSessions(options, wire, report, kSetups);
  if (!session) {
    return;
  }
  report.Note("digest", Hex(session->Digest()));
  report.Note("tcl_exec_mode", ExecModeName(session->app().interp()));
  if (wire) {
    report.Note("wire_backend",
                xsim::wire::WireBackendName(session->server().wire().backend()));
  }
  LoopResult loop = ClosedLoop(*session, options.seconds, report);
  session->Verify(report, "at the end of the run");
  uint64_t updown_folds = session->updown_folds();
  if (wire) {
    uint64_t actual = RasterHash(session->server());
    uint64_t actions = session->actions();
    // The replay's App must be the only one in the process: the simulated
    // window manager cascades each further App's main window.
    session.reset();
    uint64_t expected = ReplayLocalRasterHash(options.seed, actions, report);
    if (options.mutate == "ui_raster") {
      expected ^= 1;
    }
    if (actual != expected) {
      report.Problem("ui_wire framebuffer differs from the ui_local replay");
    }
  }
  report.Note("inputs", std::to_string(loop.input_us.size()));
  report.Note("dialogs", std::to_string(loop.dialog_ms.size()));
  report.Note("known_defect_updown_folds", std::to_string(updown_folds));
  report.Metric("op_p50_us", Median(loop.input_us), "us");
  report.Note("op_p90_us", std::to_string(Quantile(loop.input_us, 0.9)));
  report.Note("op_p99_us", std::to_string(Quantile(loop.input_us, 0.99)));
  report.Metric("ops_per_s", WindowedRate(loop.input_us, loop.input_end_ns, 1.0), "1/s");
  report.Metric("aux_p50_us", Median(loop.dialog_ms) * 1e3, "us");
}

void TraceUi(const RunOptions& options, bool wire, bool own, bool ledger, Report& report) {
  Report scratch;  // Set-up time is an end-to-end metric; not reported here.
  std::unique_ptr<UiSession> session = SetUpSessions(options, wire, scratch, 1);
  if (!session) {
    for (const std::string& problem : scratch.problems) {
      report.Problem(problem);
    }
    return;
  }
  Tracer tracer;
  std::vector<double> traced_us;
  std::vector<double> create_ms;
  std::vector<double> destroy_ms;
  std::vector<double> dialog_round_trips;
  Counters input_sum;
  uint64_t inputs = 0;
  Counters first = session->Snapshot();
  uint64_t errors_before = session->errors();
  for (int i = 0; i < kTracedActions; ++i) {
    Action action = session->NextAction();
    tracer.set_op(session->actions());
    ++report.attempted;
    Counters before = session->Snapshot();
    if (action.kind == Kind::kDialog) {
      double c = 0;
      double d = 0;
      int32_t root = tracer.Begin("bench.dialog");
      session->DialogCycle(&tracer, &c, &d);
      tracer.End(root);
      create_ms.push_back(c);
      destroy_ms.push_back(d);
      dialog_round_trips.push_back(
          static_cast<double>(session->Snapshot().round_trips - before.round_trips));
      continue;
    }
    int64_t t0 = NowNs();
    int32_t root = tracer.Begin("bench.input");
    session->Inject(action, &tracer);
    session->Settle(&tracer);
    tracer.End(root);
    traced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    Counters after = session->Snapshot();
    ++inputs;
    input_sum.binds += after.binds - before.binds;
    input_sum.redraws += after.redraws - before.redraws;
    input_sum.repacks += after.repacks - before.repacks;
    input_sum.requests += after.requests - before.requests;
    input_sum.flushes += after.flushes - before.flushes;
    input_sum.round_trips += after.round_trips - before.round_trips;
    input_sum.frames += after.frames - before.frames;
  }
  Counters last = session->Snapshot();
  if (session->errors() != errors_before) {
    report.FailOp("traced ui pass raised X or background errors");
  }
  session->Verify(report, "after the traced pass");
  // Untraced reference pass over as many further actions, for the tracing
  // overhead.  It runs after the traced pass so the traced slice of the
  // action stream (and so every count metric) is the same whichever
  // workload was named.
  std::vector<double> plain_us;
  if (own) {
    for (int i = 0; i < kTracedActions; ++i) {
      Action action = session->NextAction();
      if (action.kind == Kind::kDialog) {
        session->DialogCycle(nullptr, nullptr, nullptr);
        continue;
      }
      int64_t t0 = NowNs();
      session->Inject(action, nullptr);
      session->Settle(nullptr);
      plain_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    report.Note("digest", Hex(session->Digest()));
  }

  // Packer::Arrange on the open 50-slave dialog.
  session->app().interp().Eval("dialog_open");
  session->Settle(nullptr);
  std::vector<double> arrange_us;
  tk::Widget* dialog = session->app().FindWidget(".dlg");
  for (int i = 0; i < 50 && dialog != nullptr; ++i) {
    int64_t t0 = NowNs();
    session->app().packer().Arrange(dialog);
    arrange_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  session->app().interp().Eval("destroy .dlg");
  session->Settle(nullptr);

  // Display::Flush of a fixed 32-request batch.
  xsim::Display& display = session->app().display();
  xsim::GcId gc = display.CreateGc();
  xsim::WindowId target = session->app().FindWidget(".status")->window();
  std::vector<double> flush_us;
  for (int b = 0; b < kFlushProbeBatches; ++b) {
    for (int r = 0; r < kFlushProbeRequests; ++r) {
      display.FillRectangle(target, gc, xsim::Rect{r, 0, 1, 1});
    }
    int64_t t0 = NowNs();
    display.Flush();
    flush_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  display.FreeGc(gc);
  session->Settle(nullptr);

  size_t roots = 0;
  std::map<std::string, double> self = tracer.SelfTimeUnder("bench.input", &roots);
  double n = static_cast<double>(std::max<uint64_t>(inputs, 1));
  auto per_input = [&](const char* name) { return self[name] / n / 1e3; };
  report.Metric("tk.dispatch_us_per_input", per_input("tk.dispatch"), "us");
  report.Metric("tk.idle_us_per_input", per_input("tk.idle"), "us");
  report.Metric("tk.bind_matches_per_input", static_cast<double>(input_sum.binds) / n, "count");
  report.Metric("tk.redraws_per_input", static_cast<double>(input_sum.redraws) / n, "count");
  report.Metric("tk.repacks_per_input", static_cast<double>(input_sum.repacks) / n, "count");
  report.Metric("tk.pack_arrange_us", Median(arrange_us), "us");
  report.Metric("tk.dialog_create_ms", Median(create_ms), "ms");
  report.Metric("tk.dialog_destroy_ms", Median(destroy_ms), "ms");
  uint64_t hits = last.cache_hits - first.cache_hits;
  uint64_t lookups = hits + last.cache_misses - first.cache_misses;
  report.Metric("tk.resource_cache_hit_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
                "ratio");
  report.Metric("pipeline.requests_per_input", static_cast<double>(input_sum.requests) / n,
                "count");
  report.Metric("pipeline.flushes_per_input", static_cast<double>(input_sum.flushes) / n,
                "count");
  report.Metric("pipeline.round_trips_per_input",
                static_cast<double>(input_sum.round_trips) / n, "count");
  report.Metric("pipeline.round_trips_per_dialog", Median(dialog_round_trips), "count");
  report.Metric("pipeline.flush_us", Median(flush_us), "us");
  report.Metric("pipeline.sync_us", per_input("pipeline.sync"), "us");
  report.Metric("wire.frames_per_input", static_cast<double>(input_sum.frames) / n, "count");
  report.Metric("wire.idle_rtt_us", IdleWireRttUs(), "us");
  if (ledger) {
    report.Metric("bench.unexplained_us_per_input",
                  PrintLedger(wire ? "ui_wire" : "ui_local", tracer, "bench.input"), "us");
  }
  if (own) {
    double plain = Median(plain_us);
    report.Metric("bench.trace_overhead_pct", (Median(traced_us) - plain) / plain * 100.0,
                  "%");
    DumpSpans(options, wire ? "ui_wire" : "ui_local", tracer, report);
  }
}

// A no-op Display::Sync on an otherwise idle wire connection.
double IdleWireRttUs() {
  xsim::Server server;
  std::unique_ptr<xsim::Display> display =
      xsim::Display::Open(server, "perfbench-idle", xsim::wire::TransportKind::kWire);
  std::vector<double> rtt_us;
  for (int i = 0; i < 2000; ++i) {
    int64_t t0 = NowNs();
    display->Sync();
    rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(rtt_us);
}

}  // namespace perfbench
