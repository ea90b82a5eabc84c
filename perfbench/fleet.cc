// wire_fleet: no Tcl/Tk.  One generator thread multiplexes four raw wire
// connections from WireServer::Connect() and speaks the protocol with the
// public codec.  It runs open loop: frame i is due at t0 + i / rate whether
// or not earlier frames were answered, frames are pipelined without waiting
// for acks, and every latency is timed from the frame's due time, so a stall
// anywhere (generator included) is charged to the frames behind it.
//
// Each connection owns one screen quadrant and sends Table-2-style batches
// (create/map/configure/fill/draw/property/destroy) confined to it, plus one
// reply-bearing query per three batches (InternAtom of a name it interned at
// set-up, or GetProperty of a value it set itself).  The quadrants are
// disjoint and each connection's frames are applied in order, so the checked
// results do not depend on how the server interleaves connections.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/xsim/raster.h"
#include "src/xsim/request.h"
#include "src/xsim/server.h"
#include "src/xsim/wire/codec.h"
#include "src/xsim/wire/wire_server.h"

namespace perfbench {
namespace {

using xsim::Request;
using xsim::RequestOpcode;
using xsim::wire::Frame;
using xsim::wire::FrameKind;

constexpr int kConnections = 4;
constexpr int kQuadrantW = 640;
constexpr int kQuadrantH = 512;
constexpr int kLiveWindows = 8;      // A batch destroys the window made 8 batches earlier.
constexpr int kQueryEvery = 4;       // Per connection, every 4th frame is a query.
constexpr int kAtomsPerConn = 8;
constexpr int kWarmupBatches = 200;  // Per connection.
constexpr int kSetups = 5;
constexpr xsim::XId kIdRange = 0x00100000;  // Per-client resource-id range, as Display uses.

// The workload definition: the offered rate of the open-loop phase, the
// window of the capacity phase, and the share of the run each gets.  The
// rate is about 17% of the capacity the window measures, low enough that the
// p50s stay steady from run to run; they are near-unloaded round trips, not
// queueing (NOTES.md has the rate sweep behind this choice).
constexpr double kNominalRate = 8000;      // Frames per second, all connections.
constexpr size_t kCapacityWindow = 16;     // Frames in flight per connection.
constexpr double kCapacityShare = 0.3;     // Share of the run spent on capacity.

xsim::Rect Quadrant(int conn) {
  return xsim::Rect{(conn % 2) * kQuadrantW, (conn / 2) * kQuadrantH, kQuadrantW, kQuadrantH};
}

std::string AtomName(int conn, int index) {
  return "PERFBENCH_" + std::to_string(conn) + "_" + std::to_string(index);
}

std::string PropValue(uint64_t seed, int conn, uint64_t k) {
  std::string value = "v";
  value += Hex(SubSeed(seed, 31 + conn, k));
  return value;
}

// Batch k of connection `conn`, for a client whose resource ids start at
// `base` and whose property atom is `prop`.  A pure function of its
// arguments, so the replica check can regenerate any batch.
std::vector<Request> MakeBatch(uint64_t seed, int conn, uint64_t k, xsim::XId base,
                               xsim::Atom prop) {
  Rng rng(SubSeed(seed, 21 + conn, k));
  xsim::Rect q = Quadrant(conn);
  xsim::GcId gc = base;
  xsim::WindowId w = base + 1 + static_cast<xsim::XId>(k);
  std::vector<Request> batch;
  auto add = [&batch](Request r) { batch.push_back(std::move(r)); };
  if (k == 0) {
    Request r;
    r.op = RequestOpcode::kCreateGc;
    r.resource = gc;
    add(r);
  }
  auto place = [&](Request& r) {
    r.width = 20 + static_cast<int>(rng.Below(100));
    r.height = 20 + static_cast<int>(rng.Below(100));
    r.x = q.x + static_cast<int>(rng.Below(static_cast<uint32_t>(q.width - r.width)));
    r.y = q.y + static_cast<int>(rng.Below(static_cast<uint32_t>(q.height - r.height)));
  };
  Request create;
  create.op = RequestOpcode::kCreateWindow;
  create.window = 1;  // Root.
  create.resource = w;
  place(create);
  add(create);
  Request bg;
  bg.op = RequestOpcode::kSetWindowBackground;
  bg.window = w;
  bg.pixel = static_cast<xsim::Pixel>(rng.Next() & 0xffffff);
  add(bg);
  Request map;
  map.op = RequestOpcode::kMapWindow;
  map.window = w;
  add(map);
  Request configure;
  configure.op = RequestOpcode::kConfigureWindow;
  configure.window = w;
  place(configure);
  add(configure);
  Request gcv;
  gcv.op = RequestOpcode::kChangeGc;
  gcv.gc = gc;
  gcv.gc_values.foreground = static_cast<xsim::Pixel>(rng.Next() & 0xffffff);
  add(gcv);
  Request fill;
  fill.op = RequestOpcode::kFillRectangle;
  fill.window = w;
  fill.gc = gc;
  fill.rect = xsim::Rect{static_cast<int>(rng.Below(10)), static_cast<int>(rng.Below(10)),
                         5 + static_cast<int>(rng.Below(30)),
                         5 + static_cast<int>(rng.Below(30))};
  add(fill);
  Request line;
  line.op = RequestOpcode::kDrawLine;
  line.window = w;
  line.gc = gc;
  line.x = static_cast<int>(rng.Below(20));
  line.y = static_cast<int>(rng.Below(20));
  line.x1 = static_cast<int>(rng.Below(20));
  line.y1 = static_cast<int>(rng.Below(20));
  add(line);
  Request outline;
  outline.op = RequestOpcode::kDrawRectangle;
  outline.window = w;
  outline.gc = gc;
  outline.rect = xsim::Rect{2, 2, 10 + static_cast<int>(rng.Below(8)),
                            10 + static_cast<int>(rng.Below(8))};
  add(outline);
  Request property;
  property.op = RequestOpcode::kChangeProperty;
  property.window = w;
  property.atom = prop;
  property.text = PropValue(seed, conn, k);
  add(property);
  if (k >= kLiveWindows) {
    Request destroy;
    destroy.op = RequestOpcode::kDestroyWindow;
    destroy.window = w - kLiveWindows;
    add(destroy);
  }
  return batch;
}

// Hash of one quadrant of a framebuffer.
uint64_t RegionHash(const xsim::Raster& raster, const xsim::Rect& r) {
  Fnv fnv;
  for (int y = r.y; y < r.y + r.height; ++y) {
    for (int x = r.x; x < r.x + r.width; ++x) {
      fnv.Add(static_cast<uint64_t>(raster.At(x, y)));
    }
  }
  return fnv.value();
}

// A frame waiting for its ack or reply.
struct Pending {
  int64_t due_ns = 0;
  int64_t encode_ns = 0;  // Encode start.
  int64_t write_ns = 0;   // Encode end / write start.
  int64_t sent_ns = 0;    // Write end.
  bool query = false;
  uint32_t requests = 0;        // Batch: expected applied count.
  bool atom_query = false;      // Query: InternAtom (else GetProperty).
  uint64_t expect_atom = 0;
  std::string expect_text;
};

// One raw wire connection, non-blocking, driven by the generator thread.
class RawConn {
 public:
  explicit RawConn(int fd) : fd_(fd) {}
  ~RawConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  int fd() const { return fd_; }
  bool has_output() const { return out_off_ < out_.size(); }

  void Queue(const std::vector<uint8_t>& frame) {
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    out_.insert(out_.end(), frame.begin(), frame.end());
  }
  // Writes what the socket takes; false on a dead socket.
  bool FlushSome() {
    while (out_off_ < out_.size()) {
      ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    return true;
  }
  // Reads what is available and appends every complete frame; false on EOF
  // or a malformed stream.
  bool ReadSome(std::vector<Frame>* frames) {
    uint8_t buf[65536];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        return false;
      }
      break;
    }
    size_t at = 0;
    while (in_.size() - at >= xsim::wire::kFrameHeaderSize) {
      xsim::wire::FrameHeader header;
      if (xsim::wire::DecodeFrameHeader(in_.data() + at, in_.size() - at, &header) !=
          xsim::wire::DecodeStatus::kOk) {
        return false;
      }
      size_t total = xsim::wire::kFrameHeaderSize + header.payload_length;
      if (in_.size() - at < total) {
        break;
      }
      Frame frame;
      frame.kind = header.kind;
      frame.payload.assign(in_.begin() + static_cast<long>(at + xsim::wire::kFrameHeaderSize),
                           in_.begin() + static_cast<long>(at + total));
      frames->push_back(std::move(frame));
      at += total;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<long>(at));
    return true;
  }
  // Blocking request/response for set-up: sends `frame`, waits (up to 5 s)
  // for the first frame back.
  bool Call(const std::vector<uint8_t>& frame, Frame* reply) {
    Queue(frame);
    std::vector<Frame> frames;
    int64_t deadline = NowNs() + 5'000'000'000;
    while (NowNs() < deadline) {
      if (!FlushSome()) {
        return false;
      }
      pollfd pfd{fd_, static_cast<short>(POLLIN | (has_output() ? POLLOUT : 0)), 0};
      ::poll(&pfd, 1, 100);
      if (!ReadSome(&frames)) {
        return false;
      }
      if (!frames.empty()) {
        *reply = std::move(frames.front());
        return frames.size() == 1;
      }
    }
    return false;
  }

 private:
  int fd_;
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
  std::vector<uint8_t> in_;
};

// How a phase paces its frames.  Open loop (rate > 0): frame i is due at
// start + i / rate, for `frames` frames or, with frames == 0, for `seconds`.
// Closed loop (rate == 0): each connection keeps `window` frames in flight
// for `seconds`.  Either way the phase ends by draining every answer.
struct Pacing {
  double rate = 0;
  uint64_t frames = 0;
  size_t window = 0;
  double seconds = 0;
  int stall_ms = 0;  // Self-test hook: a third into the phase the generator goes deaf.
};

// Result of one phase.
struct Phase {
  std::vector<double> batch_us;
  std::vector<double> query_us;
  std::vector<double> late_us;
  size_t backlog_max = 0;
  uint64_t answered_in_time = 0;  // Frames answered before sending stopped.
};

class Fleet {
 public:
  Fleet(uint64_t seed, const std::string& mutate) : seed_(seed), mutate_(mutate) {}

  // Starts the wire server, connects and handshakes every connection,
  // interns the expected atoms and runs the warm-up batches.
  bool Setup(Report& report) {
    xsim::wire::WireServer& wire = server_.wire();
    for (int c = 0; c < kConnections; ++c) {
      int fd = wire.Connect();
      if (fd < 0) {
        report.Problem("wire_fleet: WireServer::Connect failed");
        return false;
      }
      conns_[c].raw = std::make_unique<RawConn>(fd);
      Frame reply;
      xsim::wire::WireAck ack;
      if (!conns_[c].raw->Call(xsim::wire::EncodeFrame(
                                   FrameKind::kHello, xsim::wire::EncodeHelloPayload(
                                                          "perfbench-fleet-" + std::to_string(c))),
                               &reply) ||
          reply.kind != FrameKind::kHelloAck ||
          xsim::wire::DecodeAckPayload(reply.payload, &ack) != xsim::wire::DecodeStatus::kOk) {
        report.Problem("wire_fleet: hello handshake failed");
        return false;
      }
      conns_[c].base = static_cast<xsim::XId>(ack.value) * kIdRange;
      for (int a = 0; a < kAtomsPerConn; ++a) {
        xsim::wire::WireQuery query;
        query.op = xsim::wire::QueryOpcode::kInternAtom;
        query.text = AtomName(c, a);
        xsim::wire::WireReply atom;
        if (!conns_[c].raw->Call(xsim::wire::EncodeFrame(FrameKind::kQuery,
                                                         xsim::wire::EncodeQueryPayload(query)),
                                 &reply) ||
            reply.kind != FrameKind::kReply ||
            xsim::wire::DecodeReplyPayload(reply.payload, &atom) !=
                xsim::wire::DecodeStatus::kOk ||
            !atom.ok) {
          report.Problem("wire_fleet: InternAtom at set-up failed");
          return false;
        }
        conns_[c].atoms.push_back(static_cast<xsim::Atom>(atom.value));
      }
    }
    // Warm-up: the same open-loop machinery, closed by a drain.
    Pacing warmup;
    warmup.rate = 20000;
    warmup.frames = kWarmupBatches * kConnections * kQueryEvery / 3;
    Drive(warmup, nullptr, report);
    return report.correct;
  }

  // Runs one phase.  The generator only hears a connection while it sits in
  // ppoll; an answer that arrives while it is busy sending waits for it, and
  // the trace charges that wait to bench.read_delay, not to the server.
  Phase Drive(const Pacing& pacing, Tracer* tracer, Report& report) {
    Phase phase;
    std::vector<pollfd> pfds(kConnections);
    // The generator sleeps in ppoll until the next due time; the default
    // 50 us timer slack would make it late by design.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    bool open = pacing.rate > 0;
    int64_t start = NowNs();
    int64_t end = pacing.frames == 0 ? start + static_cast<int64_t>(pacing.seconds * 1e9)
                                     : INT64_MAX;
    double interval_ns = open ? 1e9 / pacing.rate : 0;
    uint64_t sent = 0;
    auto due_at = [&] {
      return start + static_cast<int64_t>(static_cast<double>(sent) * interval_ns);
    };
    auto more = [&](int64_t now) {
      if (!open) {
        return now < end;
      }
      return pacing.frames == 0 ? due_at() < end : sent < pacing.frames;
    };
    bool stalled = pacing.stall_ms == 0;
    int64_t drain_deadline = 0;
    int64_t awake_ns = start;  // When the generator last left ppoll.
    std::vector<Frame> inbound;
    for (;;) {
      int64_t now = NowNs();
      if (!stalled && now - start > static_cast<int64_t>(pacing.seconds * 1e9 / 3)) {
        stalled = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(pacing.stall_ms));
        now = NowNs();
      }
      bool sending = more(now);
      if (open) {
        while (sending && due_at() <= now) {
          int64_t due = due_at();
          Send(static_cast<int>(sent % kConnections), due, report);
          ++sent;
          phase.late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
          now = NowNs();
          sending = more(now);
        }
      } else {
        for (int c = 0; c < kConnections && sending; ++c) {
          while (conns_[c].pending.size() < pacing.window) {
            Send(c, NowNs(), report);
          }
        }
      }
      size_t outstanding = 0;
      for (int c = 0; c < kConnections; ++c) {
        outstanding += conns_[c].pending.size();
        pfds[c] = pollfd{conns_[c].raw->fd(),
                         static_cast<short>(POLLIN | (conns_[c].raw->has_output() ? POLLOUT : 0)),
                         0};
      }
      phase.backlog_max = std::max(phase.backlog_max, outstanding);
      if (!sending) {
        if (drain_deadline == 0) {
          drain_deadline = now + 10'000'000'000;
        }
        if (outstanding == 0) {
          break;
        }
        if (now > drain_deadline) {
          report.Problem("wire_fleet: answers missing 10 s after the last frame");
          break;
        }
      }
      // A first look without waiting: what is readable now arrived while
      // the generator was busy, some time since it last left ppoll.
      timespec zero{0, 0};
      int ready = ::ppoll(pfds.data(), pfds.size(), &zero, nullptr);
      int64_t heard_since = awake_ns;
      if (ready == 0) {
        int64_t wait_ns = open && sending ? std::max<int64_t>(0, due_at() - NowNs()) : 1'000'000;
        timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                    static_cast<long>(wait_ns % 1'000'000'000)};
        ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        heard_since = NowNs();
      }
      awake_ns = NowNs();
      if (ready <= 0) {
        continue;
      }
      for (int c = 0; c < kConnections; ++c) {
        if ((pfds[c].revents & POLLOUT) != 0 && !conns_[c].raw->FlushSome()) {
          report.FailOp("wire_fleet: connection write failed");
          return phase;
        }
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        int64_t read_ns = NowNs();
        inbound.clear();
        if (!conns_[c].raw->ReadSome(&inbound)) {
          report.FailOp("wire_fleet: connection closed or stream malformed");
          return phase;
        }
        for (Frame& frame : inbound) {
          size_t answered = Receive(c, frame, heard_since, read_ns, tracer, phase, report);
          if (read_ns <= end) {
            phase.answered_in_time += answered;
          }
        }
      }
    }
    return phase;
  }

  // Bye on every connection, then the checks that need the final state.
  void Finish(Report& report) {
    for (int c = 0; c < kConnections; ++c) {
      if (!conns_[c].pending.empty()) {
        report.Problem("wire_fleet: frames left unanswered");
      }
    }
    // Replica: a fresh Server fed the same batches directly.
    xsim::Server replica;
    for (int c = 0; c < kConnections; ++c) {
      xsim::ClientId id = replica.RegisterClient("replica-" + std::to_string(c));
      xsim::XId base = id * kIdRange;
      xsim::Atom prop = replica.InternAtom(id, AtomName(c, 0));
      for (uint64_t k = 0; k < conns_[c].batches; ++k) {
        replica.ApplyBatch(id, MakeBatch(seed_, c, k, base, prop));
      }
    }
    for (int c = 0; c < kConnections; ++c) {
      uint64_t expected = RegionHash(replica.raster(), Quadrant(c));
      if (mutate_ == "fleet_region" && c == 0) {
        expected ^= 1;
      }
      if (RegionHash(server_.raster(), Quadrant(c)) != expected) {
        report.Problem("wire_fleet: quadrant " + std::to_string(c) +
                       " differs from the replica server");
      }
    }
    for (int c = 0; c < kConnections; ++c) {
      Frame reply;
      conns_[c].raw->Call(xsim::wire::EncodeFrame(FrameKind::kBye, {}), &reply);
    }
  }

  // Digest of the checked outputs after set-up: every quadrant's pixels and
  // every interned atom.
  uint64_t Digest() {
    Fnv fnv;
    for (int c = 0; c < kConnections; ++c) {
      fnv.Add(RegionHash(server_.raster(), Quadrant(c)));
      for (xsim::Atom atom : conns_[c].atoms) {
        fnv.Add(server_.AtomName(atom));
      }
    }
    return fnv.value();
  }

  xsim::Server& server() { return server_; }

  // Batches as connection 0 would send them: the input of the codec and
  // apply probes.
  std::vector<std::vector<Request>> SampleBatches(int count) const {
    std::vector<std::vector<Request>> out;
    for (int k = 0; k < count; ++k) {
      out.push_back(MakeBatch(seed_, k % kConnections, static_cast<uint64_t>(k / kConnections),
                              (1 + static_cast<xsim::XId>(k % kConnections)) * kIdRange, 1));
    }
    return out;
  }

 private:
  struct Conn {
    std::unique_ptr<RawConn> raw;
    xsim::XId base = 0;
    std::vector<xsim::Atom> atoms;
    uint64_t frames = 0;
    uint64_t batches = 0;
    uint64_t queries = 0;
    std::deque<Pending> pending;
  };

  void Send(int c, int64_t due, Report& report) {
    Conn& conn = conns_[c];
    Pending p;
    p.due_ns = due;
    p.encode_ns = NowNs();
    std::vector<uint8_t> frame;
    if (conn.frames++ % kQueryEvery == kQueryEvery - 1 && conn.batches > 0) {
      p.query = true;
      xsim::wire::WireQuery query;
      if (conn.queries++ % 2 == 0) {
        p.atom_query = true;
        int index = static_cast<int>((conn.queries / 2) % kAtomsPerConn);
        query.op = xsim::wire::QueryOpcode::kInternAtom;
        query.text = AtomName(c, index);
        p.expect_atom = conn.atoms[index];
        if (mutate_ == "fleet_reply") {
          ++p.expect_atom;
        }
      } else {
        uint64_t last = conn.batches - 1;
        query.op = xsim::wire::QueryOpcode::kGetProperty;
        query.a = conn.base + 1 + static_cast<xsim::XId>(last);
        query.b = conn.atoms[0];
        p.expect_text = PropValue(seed_, c, last);
      }
      frame = xsim::wire::EncodeFrame(FrameKind::kQuery, xsim::wire::EncodeQueryPayload(query));
    } else {
      std::vector<Request> batch = MakeBatch(seed_, c, conn.batches++, conn.base, conn.atoms[0]);
      p.requests = static_cast<uint32_t>(batch.size());
      frame = xsim::wire::EncodeFrame(FrameKind::kBatch, xsim::wire::EncodeBatchPayload(batch));
    }
    p.write_ns = NowNs();
    conn.raw->Queue(frame);
    if (!conn.raw->FlushSome()) {
      report.FailOp("wire_fleet: connection write failed");
    }
    p.sent_ns = NowNs();
    conn.pending.push_back(std::move(p));
  }

  // Matches one inbound frame to the oldest pending frame of its
  // connection; returns how many pending frames it retired.  The frame
  // arrived no earlier than `heard_ns` (see Drive) and was read at `read_ns`.
  size_t Receive(int c, const Frame& frame, int64_t heard_ns, int64_t read_ns, Tracer* tracer,
                 Phase& phase, Report& report) {
    Conn& conn = conns_[c];
    if (frame.kind == FrameKind::kError || frame.kind == FrameKind::kEvent) {
      report.FailOp(std::string("wire_fleet: unexpected ") +
                    xsim::wire::FrameKindName(frame.kind) + " frame");
      return 0;
    }
    if (conn.pending.empty()) {
      report.FailOp("wire_fleet: frame with nothing pending");
      return 0;
    }
    Pending p = std::move(conn.pending.front());
    conn.pending.pop_front();
    ++report.attempted;
    int64_t decode_start = NowNs();
    bool ok = false;
    if (p.query) {
      xsim::wire::WireReply reply;
      ok = frame.kind == FrameKind::kReply &&
           xsim::wire::DecodeReplyPayload(frame.payload, &reply) ==
               xsim::wire::DecodeStatus::kOk &&
           reply.ok &&
           (p.atom_query ? reply.value == p.expect_atom : reply.text == p.expect_text);
    } else {
      xsim::wire::WireAck ack;
      uint64_t expected = p.requests;
      if (mutate_ == "fleet_ack") {
        ++expected;
      }
      ok = frame.kind == FrameKind::kBatchAck &&
           xsim::wire::DecodeAckPayload(frame.payload, &ack) == xsim::wire::DecodeStatus::kOk &&
           ack.value == expected;
    }
    int64_t done = NowNs();
    if (!ok) {
      report.FailOp(std::string("wire_fleet: wrong ") + (p.query ? "reply" : "batch ack") +
                    " on connection " + std::to_string(c));
    }
    double latency_us = static_cast<double>(done - p.due_ns) / 1e3;
    (p.query ? phase.query_us : phase.batch_us).push_back(latency_us);
    if (tracer != nullptr && !p.query) {
      int32_t root = tracer->Add("bench.batch", p.due_ns, done, -1);
      tracer->Add("bench.late", p.due_ns, p.encode_ns, root);
      tracer->Add("wire.encode", p.encode_ns, p.write_ns, root);
      tracer->Add("wire.write", p.write_ns, p.sent_ns, root);
      int64_t heard = std::clamp(heard_ns, p.sent_ns, read_ns);
      tracer->Add("server.inflight", p.sent_ns, heard, root);
      tracer->Add("bench.read_delay", heard, decode_start, root);
      tracer->Add("wire.decode", decode_start, done, root);
    }
    return 1;
  }

  uint64_t seed_;
  std::string mutate_;
  xsim::Server server_;
  Conn conns_[kConnections];
};

std::unique_ptr<Fleet> SetUpFleet(const RunOptions& options, Report& report, int setups,
                                  bool report_setup) {
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    int64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>(options.seed, options.mutate);
    bool ok = fleet->Setup(report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ok) {
      return nullptr;
    }
  }
  if (report_setup) {
    report.Metric("setup_s", Median(setup_s), "s");
  }
  return fleet;
}

}  // namespace

void RunFleet(const RunOptions& options, Report& report) {
  std::unique_ptr<Fleet> fleet = SetUpFleet(options, report, kSetups, true);
  if (!fleet) {
    return;
  }
  report.Note("digest", Hex(fleet->Digest()));
  report.Note("wire_backend", xsim::wire::WireBackendName(fleet->server().wire().backend()));
  Pacing nominal;
  nominal.rate = kNominalRate;
  nominal.seconds = options.seconds * (1 - kCapacityShare);
  nominal.stall_ms = options.stall_ms;
  Phase phase = fleet->Drive(nominal, nullptr, report);
  Pacing window;
  window.window = kCapacityWindow;
  window.seconds = options.seconds * kCapacityShare;
  double capacity =
      static_cast<double>(fleet->Drive(window, nullptr, report).answered_in_time) /
      window.seconds;
  fleet->Finish(report);
  report.Note("batches", std::to_string(phase.batch_us.size()));
  report.Note("queries", std::to_string(phase.query_us.size()));
  report.Note("nominal_rate_per_s", std::to_string(kNominalRate));
  report.Note("gen_late_max_us",
              std::to_string(phase.late_us.empty()
                                 ? 0.0
                                 : *std::max_element(phase.late_us.begin(), phase.late_us.end())));
  report.Note("batch_max_us",
              std::to_string(phase.batch_us.empty() ? 0.0
                                                    : *std::max_element(phase.batch_us.begin(),
                                                                        phase.batch_us.end())));
  report.Metric("op_p50_us", Median(phase.batch_us), "us");
  report.Note("op_p90_us", std::to_string(Quantile(phase.batch_us, 0.9)));
  report.Note("op_p99_us", std::to_string(Quantile(phase.batch_us, 0.99)));
  report.Metric("ops_per_s", capacity, "1/s");
  report.Metric("aux_p50_us", Median(phase.query_us), "us");
}

void TraceFleet(const RunOptions& options, bool own, Report& report) {
  Report scratch;
  std::unique_ptr<Fleet> fleet = SetUpFleet(options, scratch, 1, false);
  if (!fleet) {
    for (const std::string& problem : scratch.problems) {
      report.Problem(problem);
    }
    return;
  }
  // A fixed number of frames at the nominal rate: traced, then untraced.
  Pacing fixed;
  fixed.rate = kNominalRate;
  fixed.frames = static_cast<uint64_t>(kNominalRate * (own ? 2.0 : 1.0));
  fleet->server().wire().ResetStats();
  Tracer tracer;
  Phase traced = fleet->Drive(fixed, &tracer, report);
  Phase plain = fleet->Drive(fixed, nullptr, report);
  xsim::wire::WireServer::Stats stats = fleet->server().wire().stats();
  if (own) {
    report.Note("digest", Hex(fleet->Digest()));
  }
  fleet->Finish(report);

  std::vector<std::vector<Request>> batches = fleet->SampleBatches(400);
  uint64_t requests = 0;
  uint64_t bytes = 0;
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& batch : batches) {
    requests += batch.size();
    payloads.push_back(xsim::wire::EncodeBatchPayload(batch));
    bytes += payloads.back().size() + xsim::wire::kFrameHeaderSize;
  }
  double reqs = static_cast<double>(requests);
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  for (int rep = 0; rep < 20; ++rep) {
    int64_t t0 = NowNs();
    for (const auto& batch : batches) {
      std::vector<uint8_t> payload = xsim::wire::EncodeBatchPayload(batch);
      if (payload.empty()) {
        report.Problem("wire_fleet: empty encoded batch");
      }
    }
    int64_t t1 = NowNs();
    std::vector<Request> decoded;
    for (const auto& payload : payloads) {
      if (xsim::wire::DecodeBatchPayload(payload, &decoded) != xsim::wire::DecodeStatus::kOk) {
        report.Problem("wire_fleet: a sample batch failed to decode");
      }
    }
    int64_t t2 = NowNs();
    encode_ns.push_back(static_cast<double>(t1 - t0) / reqs);
    decode_ns.push_back(static_cast<double>(t2 - t1) / reqs);
  }
  // Apply on untimed replicas: one per path, each fed the same batches.
  auto apply_ns = [&](bool sharded) {
    std::vector<double> per_req;
    for (int rep = 0; rep < 5; ++rep) {
      xsim::Server replica;
      xsim::ClientId ids[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        ids[c] = replica.RegisterClient("replica");
      }
      // The sample batches set properties on atom 1.
      replica.InternAtom(ids[0], AtomName(0, 0));
      int64_t t0 = NowNs();
      for (size_t k = 0; k < batches.size(); ++k) {
        xsim::ClientId id = ids[k % kConnections];
        if (sharded) {
          replica.ApplyBatchSharded(id, batches[k]);
        } else {
          replica.ApplyBatch(id, batches[k]);
        }
      }
      per_req.push_back(static_cast<double>(NowNs() - t0) / reqs);
      if (replica.fault_counters().errors_generated != 0) {
        report.Problem("wire_fleet: a sample batch raised X errors on the replica");
      }
    }
    return Median(per_req);
  };
  // Raster::FillRect over seeded rectangles.
  std::vector<double> fill_ns;
  {
    xsim::Raster raster(1280, 1024);
    Rng rng(SubSeed(options.seed, 41));
    std::vector<xsim::Rect> rects;
    double pixels = 0;
    for (int i = 0; i < 2000; ++i) {
      xsim::Rect r{static_cast<int>(rng.Below(1100)), static_cast<int>(rng.Below(900)),
                   20 + static_cast<int>(rng.Below(160)), 20 + static_cast<int>(rng.Below(120))};
      pixels += static_cast<double>(r.width) * r.height;
      rects.push_back(r);
    }
    xsim::Rect clip{0, 0, 1280, 1024};
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t0 = NowNs();
      for (size_t i = 0; i < rects.size(); ++i) {
        raster.FillRect(rects[i], static_cast<xsim::Pixel>(i), clip);
      }
      fill_ns.push_back(static_cast<double>(NowNs() - t0) / (pixels / 1000));
    }
  }

  report.Metric("wire.bytes_per_req", static_cast<double>(bytes) / reqs, "bytes");
  report.Metric("wire.encode_ns_per_req", Median(encode_ns), "ns");
  report.Metric("wire.decode_ns_per_req", Median(decode_ns), "ns");
  report.Metric("wire.peak_outbound_depth", static_cast<double>(stats.peak_outbound_depth),
                "frames");
  report.Metric("wire.backpressure_kills", static_cast<double>(stats.backpressure_kills),
                "count");
  report.Metric("wire.backlog_max",
                static_cast<double>(std::max(plain.backlog_max, traced.backlog_max)), "frames");
  report.Metric("server.apply_ns_per_req", apply_ns(false), "ns");
  report.Metric("server.apply_sharded_ns_per_req", apply_ns(true), "ns");
  report.Metric("server.raster_fill_ns_per_kpx", Median(fill_ns), "ns");
  report.Metric("bench.gen_late_p99_us", Quantile(plain.late_us, 0.99), "us");
  if (own) {
    PrintLedger("wire_fleet", tracer, "bench.batch");
    double base = Median(plain.batch_us);
    report.Metric("bench.trace_overhead_pct", (Median(traced.batch_us) - base) / base * 100.0,
                  "%");
    DumpSpans(options, "wire_fleet", tracer, report);
  }
}

}  // namespace perfbench
