// The epoll event loop: DiscServer's one transport.
//
// One loop thread owns every connection: non-blocking sockets registered
// edge-triggered, a per-connection read buffer split into protocol lines,
// and a per-connection write buffer flushed opportunistically. Engine
// work — OPEN builds and DIVERSIFY/ZOOM computations — never runs on the
// loop thread; it is dispatched as jobs to a fixed pool of compute
// workers, whose results come back through a completion queue drained when
// the worker signals an eventfd. Destroying an engine the idle pool evicts
// (a CLOSE past the pool cap) is a worker job too.
//
// State ownership (the rule everything here follows): a Conn and its
// EngineLease belong to the loop thread, EXCEPT while `busy` is set — then
// exactly one worker (or one flight waiter) may touch the leased engine,
// and the loop thread touches neither engine nor lease until the
// completion arrives. A connection is therefore never destroyed while
// busy; teardown marks it dead and the completion handler finishes the
// job. This is also why a conn processes at most one command at a time:
// pipelined lines queue in order and the next one starts only after the
// previous completion.
//
// Coalescing: a DIVERSIFY/ZOOM whose flight key (server/handlers.h) is
// already in the session manager's single-flight table attaches a waiter
// instead of dispatching a job. The leader computes once, exports a
// session capsule, and FinishFlight fans the byte-identical response line
// to every waiter; each waiter adopts the capsule into its own engine so
// its subsequent zoom chain stays valid. Completed flights are memoized in
// the manager, so a request arriving just after the flight finished still
// coalesces instead of recomputing.
//
// Backpressure, outermost first:
//  * admission control: at most `workers` executing + max_pending
//    queued jobs; beyond that a request that would compute is answered
//    with a BUSY error line. A request holds a slot from arrival to
//    completion exactly when it computes — a rider included, from the
//    moment it is registered; flight followers and memo-hit adoptions are
//    exempt;
//  * pipelining cap: a connection with kMaxQueuedLines parsed-but-
//    unserved lines stops being read — bytes back up into the kernel
//    buffer and TCP flow control stalls the client until we catch up;
//  * read cap: kMaxLineBytes without a newline tears the connection down
//    (same memory-DoS rule as LineChannel's);
//  * write cap: a client that never reads accumulates responses until
//    kMaxOutBytes, then is torn down.
//
// HTTP: the loop also speaks HTTP/1.1 (server/http.h), auto-detected per
// connection from the first bytes (a method prefix like "POST " selects
// HTTP; anything else is the line protocol). HTTP is pure framing: each
// request maps onto one protocol command line that flows through the SAME
// pending-line queue, handlers, and single-flight table as the line
// protocol, and each response body is exactly the JSON line (+ newline)
// the line protocol would emit, wrapped with a status derived from the
// line itself (BUSY -> 503 + Retry-After). One keep-alive connection is
// one session; "Connection: close" (or HTTP/1.0) answers and then closes.
// A malformed request gets a mapped error response and the connection is
// closed — HTTP framing cannot be resynchronized after garbage.
//
// Radius adaptation across requests (§5.2): for a DIVERSIFY with
// adapt=true, JoinFlight picks one seed — the closest radius in the same
// family (pool key + algorithm + pruning) over memoized cold solves and
// cold leaders still in flight. Either way the request leads its own
// flight as a kLeader job with `plan.seed` set, and RunCompute adopts the
// seed's capsule and zooms to the requested radius (DiscEngine::AdaptFrom),
// byte-identical to running that chain cold. A memo seed dispatches at
// once; a rider waits for its seed's flight to land, whose waiter only
// hands the capsule back to the loop (a null capsule if that leader
// failed: the same job then computes cold). So a leader never runs its
// riders' zooms, and its answer never waits for them.
//
// BATCH: "BATCH n=<k>" frames the next k lines as one request unit
// (POST /batch with a JSON string-array body is the HTTP equivalent). The
// frame is framing only: once complete it expands into k slots on the
// connection's pending queue, and each slot runs through the same
// admission, single-flight, memo, and adaptation path as a single command
// — so a slot may follow another connection's flight or answer BUSY. The
// connection collects the k answers and writes them as one unit: k lines,
// or one 200-status body over HTTP. Envelope-level failures (bad n,
// malformed JSON) answer a single error line under cmd "BATCH".
//
// Shutdown drains: accepting stops, idle connections close immediately,
// queued and executing jobs run to completion, their responses are
// flushed (bounded by kDrainDeadline for clients that will not read), and
// only then do the loop and the workers join.

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/handlers.h"
#include "server/http.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"

namespace disc {
namespace {

/// Same no-newline memory cap as LineChannel.
constexpr size_t kMaxLineBytes = 1 << 20;
/// Parsed lines a connection may have waiting before reads pause.
constexpr size_t kMaxQueuedLines = 128;
/// Unflushed response bytes before a never-reading client is torn down.
constexpr size_t kMaxOutBytes = 4 << 20;
/// How long Shutdown keeps polling to flush final responses.
constexpr std::chrono::seconds kDrainDeadline(5);

/// epoll user-data ids for the two non-connection descriptors.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

class EventLoopServer final : public DiscServer {
 public:
  explicit EventLoopServer(ServerOptions options)
      : DiscServer(std::move(options)),
        ctx_{&manager_, options_.engine_threads, options_.default_backend,
             options_.max_exact_points} {
    manager_.SetEngineDisposer([this](std::unique_ptr<DiscEngine> engine) {
      Dispose(std::move(engine));
    });
  }

  ~EventLoopServer() override { Shutdown(); }

  Status Run() {
    DISC_RETURN_NOT_OK(Listen());
    DISC_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status::IOError("eventfd failed");
    AddToEpoll(listen_fd_, kListenId, EPOLLIN);
    AddToEpoll(wake_fd_, kWakeId, EPOLLIN);
    loop_thread_ = std::thread([this] { LoopThread(); });
    workers_.reserve(options_.workers);
    for (size_t i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    return Status::OK();
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_.store(true);
    Wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      workers_stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    // No worker is left to take evictions; later ones die where they occur.
    manager_.SetEngineDisposer(nullptr);
    CloseSocket(&listen_fd_);
    CloseSocket(&wake_fd_);
    CloseSocket(&epoll_fd_);
  }

  ServerStats server_stats() const override {
    ServerStats stats;
    stats.connections_accepted = connections_accepted_.load();
    stats.busy_rejections = busy_rejections_.load();
    stats.coalesced_responses = coalesced_responses_.load();
    stats.active_connections = active_connections_.load();
    stats.http_requests = http_requests_.load();
    return stats;
  }

 private:
  /// Which wire framing a connection speaks, decided once from its first
  /// bytes and fixed for the connection's lifetime.
  enum class Proto { kUnknown, kLine, kHttp };

  /// One parsed-but-unserved command. For HTTP, `keep_alive` is the
  /// request's resolved Connection semantics, and `prefailed` marks an
  /// entry whose `line` already holds the serialized error response (a
  /// framing or endpoint-mapping failure that never reaches HandleLine).
  /// `batch_size` > 0 marks the first slot of a complete BATCH frame (or
  /// POST /batch): that many consecutive entries are slots whose answers
  /// are written as one unit.
  struct Pending {
    std::string line;
    size_t batch_size = 0;
    bool keep_alive = true;
    bool prefailed = false;
  };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;   // raw bytes awaiting a newline / HTTP framing
    std::string out;  // serialized responses awaiting the socket
    std::deque<Pending> lines;
    Proto proto = Proto::kUnknown;
    HttpParser http;  // used only once proto == kHttp
    /// Connection semantics of the request currently being served (set
    /// when its Pending is popped; stable until the next pop because a
    /// conn serves one command at a time). Line protocol ignores it.
    bool cur_keep_alive = true;
    EngineLease lease;
    /// A job or flight waiter for this conn is outstanding; the loop
    /// thread must not touch the lease or destroy the conn.
    bool busy = false;
    /// EOF (or drain) observed: finish the queued lines, flush, close.
    bool no_more_input = false;
    /// Reads paused by the pipelining cap; resume when lines drain.
    bool read_paused = false;
    /// Torn down; destroy as soon as !busy.
    bool dead = false;
    /// EPOLLOUT currently registered.
    bool want_write = false;
    /// A rider's plan (seed_radius set), parked until its seed's flight
    /// lands and hands back the capsule.
    ComputePlan ride;
    /// Line-protocol BATCH framing: while batch_expect > 0, arriving lines
    /// are collected into batch_lines instead of becoming Pendings; the
    /// full frame expands into its slots. EOF mid-frame drops the
    /// incomplete batch (like a partial line).
    size_t batch_expect = 0;
    std::vector<std::string> batch_lines;
    /// The batch unit being served: slots still unanswered, and the
    /// answers so far (newline-terminated). While batch_left > 0, Respond
    /// collects instead of writing.
    size_t batch_left = 0;
    std::string batch_out;
  };

  /// kDispose destroys an engine the idle pool evicted: no connection,
  /// no admission slot, no completion.
  struct Job {
    enum class Kind { kOpen, kCompute, kLeader, kAdopt, kDispose };
    Kind kind = Kind::kCompute;
    uint64_t conn_id = 0;
    Request request;                // kOpen
    ComputePlan plan;               // kCompute / kLeader (kAdopt: verb)
    DiscEngine* engine = nullptr;   // kCompute / kLeader / kAdopt
    FlightOutcome outcome;          // kAdopt
    std::unique_ptr<DiscEngine> evicted;  // kDispose
  };

  /// Whether a job holds an admission slot from Dispatch to completion:
  /// every kind but a memo-hit adoption, which computes nothing.
  static bool HoldsSlot(Job::Kind kind) { return kind != Job::Kind::kAdopt; }

  struct Completion {
    uint64_t conn_id = 0;
    std::string response;
    EngineLease lease;       // valid => install (a successful OPEN)
    bool coalesced = false;  // produced by another connection's flight
    bool counts = false;     // releases an admission slot (HoldsSlot)
    /// A rider's seed landed: dispatch the conn's parked `ride` with this
    /// capsule (null when the seed's leader failed) instead of answering.
    bool ride = false;
    std::shared_ptr<DiscEngine::SessionCapsule> seed;
  };

  // ---- loop thread ----

  void LoopThread() {
    std::chrono::steady_clock::time_point drain_deadline{};
    bool draining = false;
    epoll_event events[64];
    while (true) {
      if (!draining && stop_requested_.load()) {
        draining = true;
        drain_deadline = std::chrono::steady_clock::now() + kDrainDeadline;
        BeginDrain();
      }
      if (draining && conns_.empty()) return;
      if (draining &&
          std::chrono::steady_clock::now() >= drain_deadline) {
        // Busy conns must wait for their worker (the engine is in use);
        // everything else — clients that will not read their last
        // response — is forcibly dropped.
        std::vector<uint64_t> drop;
        for (auto& [id, conn] : conns_) {
          if (!conn->busy) drop.push_back(id);
        }
        for (uint64_t id : drop) Destroy(id);
        if (conns_.empty()) return;
      }
      const int timeout_ms = draining ? 50 : -1;
      const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // unrecoverable poll error; Shutdown still joins us
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t id = events[i].data.u64;
        if (id == kListenId) {
          if (!draining) AcceptAll();
        } else if (id == kWakeId) {
          DrainWakeFd();
        } else {
          OnConnEvent(id, events[i].events);
        }
      }
      ProcessCompletions(draining);
    }
  }

  void AcceptAll() {
    while (true) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        // EAGAIN (drained) or a resource error (e.g. EMFILE): either way
        // stop here — the listen fd is level-triggered, so a still-pending
        // connection refires the event.
        return;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      AddToEpoll(fd, conn->id, EPOLLIN | EPOLLRDHUP | EPOLLET);
      connections_accepted_.fetch_add(1);
      const uint64_t id = conn->id;
      conns_.emplace(id, std::move(conn));
      active_connections_.store(conns_.size());
    }
  }

  void DrainWakeFd() {
    uint64_t value = 0;
    while (::read(wake_fd_, &value, sizeof(value)) > 0) {
    }
  }

  void OnConnEvent(uint64_t id, uint32_t events) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* conn = it->second.get();
    if (events & EPOLLERR) Teardown(conn);
    if (!conn->dead && (events & EPOLLOUT)) FlushOut(conn);
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
      Pump(conn);  // ends in MaybeDestroy
      return;
    }
    MaybeDestroy(conn);
  }

  /// Read -> split -> process until the conn blocks on the socket, a job,
  /// the pipelining cap, or death. The only place (besides completions)
  /// that advances a connection's protocol state.
  void Pump(Conn* conn) {
    while (!conn->dead) {
      if (!conn->no_more_input && !conn->read_paused) DrainSocket(conn);
      if (conn->dead) break;
      ProcessLines(conn);
      if (conn->dead || conn->busy) break;
      if (conn->read_paused && conn->lines.size() < kMaxQueuedLines / 2) {
        // Room again: re-drain now — edge-triggered epoll will not refire
        // for bytes that arrived while reads were paused.
        conn->read_paused = false;
        continue;
      }
      break;
    }
    MaybeDestroy(conn);
  }

  /// recv until EAGAIN/EOF/pause, framing complete commands.
  void DrainSocket(Conn* conn) {
    // Frame leftovers first: HTTP ingestion can stop mid-buffer at the
    // pipelining cap, and those bytes would otherwise wait for the next
    // recv that may never come.
    if (!conn->in.empty() && conn->proto != Proto::kUnknown) {
      IngestInput(conn);
      if (conn->dead || conn->read_paused || conn->no_more_input) return;
    }
    char chunk[4096];
    while (!conn->dead && !conn->no_more_input) {
      const ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn->in.append(chunk, static_cast<size_t>(got));
        IngestInput(conn);
        if (conn->read_paused) return;
        continue;
      }
      if (got == 0) {
        // EOF: the lines already received still get answers; the partial
        // tail, if any, is dropped.
        conn->no_more_input = true;
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Teardown(conn);
      return;
    }
  }

  /// Frames whatever the read buffer holds according to the connection's
  /// protocol, detecting it first if this is the start of the stream.
  void IngestInput(Conn* conn) {
    if (conn->proto == Proto::kUnknown) DetectProto(conn);
    if (conn->proto == Proto::kHttp) {
      IngestHttp(conn);
    } else if (conn->proto == Proto::kLine) {
      SplitLines(conn);
    }
    // Still kUnknown: the bytes so far are a proper prefix of an HTTP
    // method ("POS") — wait for more; the ambiguity resolves within the
    // longest method token.
  }

  /// First-bytes protocol detection: an HTTP method + space selects HTTP,
  /// anything that cannot become one is the line protocol.
  void DetectProto(Conn* conn) {
    static constexpr const char* kMethods[] = {
        "GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS ", "PATCH "};
    if (conn->in.empty()) return;
    bool ambiguous = false;
    for (const char* method : kMethods) {
      const size_t len = std::char_traits<char>::length(method);
      const size_t prefix = std::min(conn->in.size(), len);
      if (conn->in.compare(0, prefix, method, prefix) != 0) continue;
      if (conn->in.size() >= len) {
        conn->proto = Proto::kHttp;
        return;
      }
      ambiguous = true;  // e.g. "POS": could still become "POST "
    }
    if (!ambiguous) conn->proto = Proto::kLine;
  }

  /// Consumes complete HTTP requests into the pending queue. Each becomes
  /// either a protocol command line or a prefailed error entry; a framing
  /// error queues its error response and stops all further reading (the
  /// stream cannot be resynchronized).
  void IngestHttp(Conn* conn) {
    while (!conn->dead) {
      HttpRequest request;
      const HttpParser::Step step = conn->http.Consume(&conn->in, &request);
      if (conn->http.TakeExpectContinue()) {
        // Interim response so Expect: 100-continue clients send the body.
        conn->out += "HTTP/1.1 100 Continue\r\n\r\n";
        FlushOut(conn);
        if (conn->dead) return;
      }
      switch (step) {
        case HttpParser::Step::kRequest: {
          http_requests_.fetch_add(1);
          if (request.target == "/batch") {
            Result<std::vector<std::string>> slots = HttpBatchSlots(request);
            if (slots.ok()) {
              QueueBatch(conn, std::move(*slots), request.keep_alive);
            } else {
              QueuePrefailed(conn, SerializeError("BATCH", slots.status()),
                             request.keep_alive);
            }
          } else {
            Result<std::string> line = HttpRequestToCommandLine(request);
            if (line.ok()) {
              Pending pending;
              pending.line = std::move(*line);
              pending.keep_alive = request.keep_alive;
              conn->lines.push_back(std::move(pending));
            } else {
              QueuePrefailed(conn, SerializeError("?", line.status()),
                             request.keep_alive);
            }
          }
          if (conn->lines.size() >= kMaxQueuedLines) {
            conn->read_paused = true;
            return;
          }
          continue;
        }
        case HttpParser::Step::kError: {
          QueuePrefailed(conn, SerializeError("?", conn->http.error()),
                         /*keep_alive=*/false);
          conn->no_more_input = true;  // DrainSocket stops reading
          conn->in.clear();
          return;
        }
        case HttpParser::Step::kNeedMore:
          return;
      }
    }
  }

  /// POST /batch: the JSON string-array body becomes the batch's slots.
  /// Envelope-level failures (wrong method, malformed JSON, size out of
  /// bounds) fail the whole request — the caller answers ONE error line
  /// under cmd "BATCH", mapped to a 4xx status like any other error line;
  /// per-slot failures stay in the 200 body.
  static Result<std::vector<std::string>> HttpBatchSlots(
      const HttpRequest& request) {
    if (request.method != "POST") {
      return Status::InvalidArgument("/batch requires POST");
    }
    DISC_ASSIGN_OR_RETURN(std::vector<std::string> slots,
                          ParseJsonStringArray(request.body));
    if (slots.empty() || slots.size() > kMaxBatchCommands) {
      return Status::InvalidArgument(
          "/batch body must contain between 1 and " +
          std::to_string(kMaxBatchCommands) + " commands, got " +
          std::to_string(slots.size()));
    }
    return slots;
  }

  /// Queues an already-serialized error answer; it waits in the queue only
  /// so responses stay in request order.
  static void QueuePrefailed(Conn* conn, std::string response,
                             bool keep_alive) {
    Pending pending;
    pending.line = std::move(response);
    pending.keep_alive = keep_alive;
    pending.prefailed = true;
    conn->lines.push_back(std::move(pending));
  }

  /// Expands a complete batch frame into its slots on the pending queue.
  /// Each slot is an ordinary submission; the first carries the frame size
  /// so the k answers are written as one unit.
  static void QueueBatch(Conn* conn, std::vector<std::string> slots,
                         bool keep_alive) {
    for (std::string& slot : slots) {
      Pending pending;
      pending.line = std::move(slot);
      pending.keep_alive = keep_alive;
      conn->lines.push_back(std::move(pending));
    }
    conn->lines[conn->lines.size() - slots.size()].batch_size = slots.size();
  }

  /// Moves complete lines out of the read buffer; tears down on the
  /// no-newline memory cap.
  void SplitLines(Conn* conn) {
    size_t start = 0;
    while (true) {
      const size_t newline = conn->in.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = conn->in.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      AddLine(conn, std::move(line));
      start = newline + 1;
      if (conn->lines.size() >= kMaxQueuedLines) {
        conn->read_paused = true;
      }
    }
    conn->in.erase(0, start);
    if (conn->in.size() > kMaxLineBytes) Teardown(conn);
  }

  /// True when the line's first token is the BATCH envelope verb.
  static bool IsBatchEnvelope(const std::string& line) {
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) return false;
    size_t end = line.find_first_of(" \t", begin);
    if (end == std::string::npos) end = line.size();
    return line.compare(begin, end - begin, "BATCH") == 0;
  }

  /// Routes one complete line: into an open BATCH frame, as a new BATCH
  /// envelope, or as an ordinary pending command.
  void AddLine(Conn* conn, std::string line) {
    if (conn->batch_expect > 0) {
      // Inside a frame every line is a slot — including blank ones, which
      // a batch answers with their parse error instead of skipping (the
      // envelope owes exactly n responses).
      conn->batch_lines.push_back(std::move(line));
      if (conn->batch_lines.size() == conn->batch_expect) {
        QueueBatch(conn, std::move(conn->batch_lines), /*keep_alive=*/true);
        conn->batch_lines.clear();
        conn->batch_expect = 0;
      }
      return;
    }
    if (IsBatchEnvelope(line)) {
      // BATCH n=<k> frames the next k lines. A bad envelope never starts
      // the frame, so no per-command responses are owed: it is answered
      // with ONE error line under cmd "BATCH".
      const Result<Request> request = ParseRequest(line);
      const Result<size_t> n = request.ok()
                                   ? DecodeBatchSize(*request)
                                   : Result<size_t>(request.status());
      if (!n.ok()) {
        QueuePrefailed(conn, SerializeError("BATCH", n.status()),
                       /*keep_alive=*/true);
        return;
      }
      conn->batch_expect = *n;
      conn->batch_lines.reserve(*n);
      return;
    }
    Pending pending;
    pending.line = std::move(line);
    conn->lines.push_back(std::move(pending));
  }

  void ProcessLines(Conn* conn) {
    while (!conn->busy && !conn->dead && !conn->lines.empty()) {
      Pending pending = std::move(conn->lines.front());
      conn->lines.pop_front();
      conn->cur_keep_alive = pending.keep_alive;
      if (pending.batch_size > 0) conn->batch_left = pending.batch_size;
      if (pending.prefailed) {
        Respond(conn, pending.line);
        continue;
      }
      // Skip blank lines so `printf '...\n\n'`-style clients are harmless
      // — except a batch slot, which owes its answer (the parse error).
      if (conn->batch_left == 0 &&
          pending.line.find_first_not_of(" \t") == std::string::npos) {
        continue;
      }
      try {
        HandleLine(conn, pending.line);
      } catch (const std::exception& e) {
        // A stray exception must not take down the loop thread (and with
        // it the whole daemon).
        Respond(conn, InternalErrorLine(e));
      }
    }
  }

  /// One command, single or batch slot: answered in place when no engine
  /// job is needed (DispatchFastPath — STATS reads the engine and CLOSE
  /// releases it here, safe because the conn is not busy), otherwise
  /// admitted and dispatched.
  void HandleLine(Conn* conn, const std::string& line) {
    Result<Request> request = ParseRequest(line);
    if (!request.ok()) {
      Respond(conn, SerializeError("?", request.status()));
      return;
    }
    std::string response;
    if (DispatchFastPath(*request, &conn->lease, &response)) {
      Respond(conn, response);
      return;
    }
    const char* cmd = VerbToString(request->verb);
    if (request->verb == Verb::kOpen) {
      if (!Admit()) {
        RejectBusy(conn, cmd);
        return;
      }
      Job job;
      job.kind = Job::Kind::kOpen;
      job.conn_id = conn->id;
      job.request = std::move(*request);
      Dispatch(conn, std::move(job));
      return;
    }
    Result<ComputePlan> plan = PlanCompute(*request, conn->lease);
    if (!plan.ok()) {
      Respond(conn, SerializeError(cmd, plan.status()));
      return;
    }
    DispatchCompute(conn, std::move(*plan));
  }

  void DispatchCompute(Conn* conn, ComputePlan plan) {
    const char* cmd = VerbToString(plan.verb);
    Job job;
    job.conn_id = conn->id;
    job.engine = &conn->lease.engine();
    if (plan.flight_key.empty()) {
      // Not coalescable (own-cache hit or unpoolable engine): a plain
      // compute job, still subject to admission.
      if (!Admit()) {
        RejectBusy(conn, cmd);
        return;
      }
      job.kind = Job::Kind::kCompute;
      job.plan = std::move(plan);
      Dispatch(conn, std::move(job));
      return;
    }
    // Mark busy BEFORE JoinFlight: a follower's or rider's waiter may fire
    // from another worker at any moment after registration.
    conn->busy = true;
    const uint64_t conn_id = conn->id;
    DiscEngine* engine = job.engine;
    const Verb verb = plan.verb;
    FlightDecision decision = manager_.JoinFlight(
        FlightRequest{plan.flight_key, plan.adapt_family,
                      plan.diversify.radius, plan.adapt, Admit()},
        [this, conn_id, engine, verb](const FlightOutcome& outcome) {
          AdoptAndComplete(conn_id, engine, verb, outcome);
        },
        [this, conn_id](const FlightOutcome& seed) {
          Completion completion;
          completion.conn_id = conn_id;
          completion.coalesced = true;
          completion.ride = true;
          completion.seed = seed.capsule;
          PushCompletion(std::move(completion));
        });
    switch (decision.join) {
      case FlightJoin::kBusy:
        conn->busy = false;
        RejectBusy(conn, cmd);
        return;
      case FlightJoin::kFollower:
        return;  // the waiter owns the rest
      case FlightJoin::kRider:
        // A rider computes, so it takes its slot now and keeps it through
        // the job its seed's landing dispatches.
        ++jobs_in_system_;
        plan.seed_radius = decision.seed_radius;
        conn->ride = std::move(plan);
        return;
      case FlightJoin::kCached:
        // Adoption is O(n); run it on a worker like everything else that
        // touches an engine. Exempt from admission — no computation.
        job.kind = Job::Kind::kAdopt;
        job.plan.verb = verb;
        job.outcome = std::move(decision.cached);
        break;
      case FlightJoin::kLeader:
      case FlightJoin::kSeeded:
        job.kind = Job::Kind::kLeader;
        plan.seed = std::move(decision.seed);
        plan.seed_radius = decision.seed_radius;
        job.plan = std::move(plan);
        break;
    }
    Dispatch(conn, std::move(job));
  }

  /// Admission check: executing + queued jobs against the configured
  /// budget. Loop-thread only.
  bool Admit() {
    return jobs_in_system_ < options_.workers + options_.max_pending;
  }

  std::string BusyLine(const char* cmd) {
    return SerializeError(
        cmd, Status::Busy("server overloaded (admission queue full); "
                          "retry later"));
  }

  /// The exception barriers' answer: the library is Status-based and
  /// should never throw, but a stray exception (e.g. bad_alloc under
  /// memory pressure) must neither escape a thread nor strand a client.
  static std::string InternalErrorLine(const std::exception& e) {
    return SerializeError(
        "?", Status::IOError(std::string("internal error: ") + e.what()));
  }

  void RejectBusy(Conn* conn, const char* cmd) {
    busy_rejections_.fetch_add(1);
    Respond(conn, BusyLine(cmd));
  }

  void Dispatch(Conn* conn, Job job) {
    conn->busy = true;
    if (HoldsSlot(job.kind)) ++jobs_in_system_;
    Enqueue(std::move(job));
  }

  void Enqueue(Job job) {
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      jobs_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  void ProcessCompletions(bool draining) {
    std::deque<Completion> done;
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      done.swap(completions_);
    }
    for (Completion& completion : done) {
      if (completion.counts && jobs_in_system_ > 0) --jobs_in_system_;
      auto it = conns_.find(completion.conn_id);
      if (it == conns_.end()) continue;  // force-dropped during drain
      Conn* conn = it->second.get();
      if (completion.coalesced) coalesced_responses_.fetch_add(1);
      if (completion.ride) {
        // The rider's seed landed. Its flight runs as a seeded leader on
        // the slot taken at arrival — even for a dead conn, whose flight
        // may have same-key followers.
        Job job;
        job.kind = Job::Kind::kLeader;
        job.conn_id = conn->id;
        job.plan = std::move(conn->ride);
        job.plan.seed = std::move(completion.seed);
        job.engine = &conn->lease.engine();
        Enqueue(std::move(job));
        continue;
      }
      conn->busy = false;
      if (completion.lease.valid()) {
        conn->lease = std::move(completion.lease);
      }
      if (conn->dead) {
        Destroy(conn->id);
        continue;
      }
      Respond(conn, completion.response);
      if (draining) DropQueuedInput(conn);
      if (conn->dead) {
        MaybeDestroy(conn);
      } else {
        Pump(conn);
      }
    }
  }

  void BeginDrain() {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    std::vector<uint64_t> idle;
    for (auto& [id, conn] : conns_) {
      DropQueuedInput(conn.get());
      if (!conn->busy && conn->out.empty()) idle.push_back(id);
    }
    for (uint64_t id : idle) Destroy(id);
  }

  /// Stops reading and forgets unserved commands — except the remaining
  /// slots of a batch unit in progress, which still owe their answers (a
  /// busy conn's in-flight command is one of them).
  void DropQueuedInput(Conn* conn) {
    conn->no_more_input = true;
    size_t owed = conn->batch_left;
    if (owed > 0 && conn->busy) --owed;
    if (conn->lines.size() > owed) conn->lines.resize(owed);
  }

  // ---- writing ----

  /// Answers the command being served. A batch slot's answer joins its
  /// unit, which is written once the last slot answers.
  void Respond(Conn* conn, const std::string& line) {
    if (conn->batch_left == 0) {
      // HTTP status is derived from the line itself, so HTTP clients see
      // proper codes (Busy -> 503 with Retry-After) while the JSON stays
      // authoritative.
      WriteUnit(conn, line + "\n",
                conn->proto == Proto::kHttp ? HttpStatusForProtocolLine(line)
                                            : 200);
      return;
    }
    conn->batch_out += line;
    conn->batch_out += '\n';
    if (--conn->batch_left > 0) return;
    // The envelope succeeded: per-slot failures stay in-body exactly as
    // the line protocol reports them.
    WriteUnit(conn, std::exchange(conn->batch_out, std::string()), 200);
  }

  /// Queues one response unit — newline-terminated protocol lines, sent
  /// as they are or as the body of one HTTP response — and flushes.
  void WriteUnit(Conn* conn, const std::string& body, int http_status) {
    if (conn->proto == Proto::kHttp) {
      conn->out += WriteHttpResponse(http_status, body, conn->cur_keep_alive,
                                     http_status == 503 ? 1 : 0);
      // This response ends the connection: drop unserved pipelined
      // requests and close once the write buffer flushes.
      if (!conn->cur_keep_alive) DropQueuedInput(conn);
    } else {
      conn->out += body;
    }
    FlushOut(conn);
    if (!conn->dead && conn->out.size() > kMaxOutBytes) Teardown(conn);
  }

  /// send until empty or EAGAIN; arms/disarms EPOLLOUT. Tears down on a
  /// write error (closed peer).
  void FlushOut(Conn* conn) {
    while (!conn->out.empty()) {
      const ssize_t wrote = ::send(conn->fd, conn->out.data(),
                                   conn->out.size(), MSG_NOSIGNAL);
      if (wrote > 0) {
        conn->out.erase(0, static_cast<size_t>(wrote));
        continue;
      }
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Teardown(conn);
      return;
    }
    UpdateWriteInterest(conn);
  }

  void UpdateWriteInterest(Conn* conn) {
    const bool want = !conn->out.empty();
    if (want == conn->want_write) return;
    conn->want_write = want;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
                   (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    event.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  }

  // ---- lifecycle ----

  /// Marks the conn for destruction. Never destroys in place — callers up
  /// the stack still hold the pointer; MaybeDestroy at the safe points
  /// (end of Pump / OnConnEvent / completion handling) finishes the job.
  void Teardown(Conn* conn) { conn->dead = true; }

  void MaybeDestroy(Conn* conn) {
    if (conn->busy) return;
    if (conn->dead || (conn->no_more_input && conn->lines.empty() &&
                       conn->out.empty())) {
      Destroy(conn->id);
    }
  }

  void Destroy(uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* conn = it->second.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(it);  // lease RAII returns the engine to the pool
    active_connections_.store(conns_.size());
  }

  // ---- worker threads ----

  void WorkerLoop() {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(work_mutex_);
        work_cv_.wait(lock, [this] { return workers_stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop requested and fully drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      ExecuteJob(job);
    }
  }

  /// The idle pool's disposer: an evicted engine is destroyed on a compute
  /// worker, so a CLOSE that evicts never stalls the loop thread. Once the
  /// workers are stopping, the caller destroys it.
  void Dispose(std::unique_ptr<DiscEngine> engine) {
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      if (workers_stop_) return;  // `engine` dies here
      Job job;
      job.kind = Job::Kind::kDispose;
      job.evicted = std::move(engine);
      jobs_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  void ExecuteJob(Job& job) {
    Completion completion;
    completion.conn_id = job.conn_id;
    completion.counts = HoldsSlot(job.kind);
    try {
      switch (job.kind) {
        case Job::Kind::kOpen: {
          EngineLease lease;
          completion.response = ExecuteOpen(ctx_, job.request, &lease);
          completion.lease = std::move(lease);
          break;
        }
        case Job::Kind::kCompute:
          completion.response = RunCompute(job.plan, *job.engine).response;
          break;
        case Job::Kind::kLeader:
          completion.response = LeadFlight(job.plan, *job.engine);
          break;
        case Job::Kind::kAdopt:
          completion.response = AdoptOutcome(job.engine, job.plan.verb,
                                             job.outcome);
          completion.coalesced = true;
          break;
        case Job::Kind::kDispose:
          job.evicted.reset();
          return;
      }
    } catch (const std::exception& e) {
      completion.response = InternalErrorLine(e);
    }
    PushCompletion(std::move(completion));
  }

  /// A flight leader's duty (cold, seeded, or rider alike): run the
  /// computation, export the session capsule (a cold solve is also offered
  /// as a seed, so later requests can adapt from it), and finish the
  /// flight — with the error line when the computation throws, so
  /// followers and riders are never stranded. Returns the leader's own
  /// response line.
  std::string LeadFlight(const ComputePlan& plan, DiscEngine& engine) {
    FlightOutcome outcome;
    bool memoize = false;
    bool seedable = false;
    try {
      const ComputeResult result = RunCompute(plan, engine);
      outcome.response = result.response;
      if (result.ok) {
        outcome.capsule = std::make_shared<DiscEngine::SessionCapsule>(
            engine.ExportSession());
      }
      memoize = result.ok;
      seedable = result.seedable;
    } catch (const std::exception& e) {
      outcome = FlightOutcome{};
      outcome.response = InternalErrorLine(e);
    }
    std::string response = outcome.response;
    manager_.FinishFlight(plan.flight_key, std::move(outcome), memoize,
                          seedable);
    return response;
  }

  /// Installs a flight outcome into a follower/memo-hit engine and returns
  /// the line to send.
  std::string AdoptOutcome(DiscEngine* engine, Verb verb,
                           const FlightOutcome& outcome) {
    if (outcome.capsule != nullptr) {
      const Status adopted = engine->AdoptSession(*outcome.capsule);
      if (!adopted.ok()) {
        return SerializeError(VerbToString(verb), adopted);
      }
    }
    return outcome.response;
  }

  /// The follower waiter: runs on the leader's worker thread. The conn is
  /// busy for the whole window, so this thread is the engine's only
  /// toucher.
  void AdoptAndComplete(uint64_t conn_id, DiscEngine* engine, Verb verb,
                        const FlightOutcome& outcome) {
    Completion completion;
    completion.conn_id = conn_id;
    completion.coalesced = true;
    try {
      completion.response = AdoptOutcome(engine, verb, outcome);
    } catch (const std::exception& e) {
      completion.response = InternalErrorLine(e);
    }
    PushCompletion(std::move(completion));
  }

  void PushCompletion(Completion completion) {
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(std::move(completion));
    }
    Wake();
  }

  void Wake() {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t wrote = ::write(wake_fd_, &one, sizeof(one));
  }

  void AddToEpoll(int fd, uint64_t id, uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }

  const CommandContext ctx_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Loop-thread state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  // 0/1 are the listen/wake sentinels
  size_t jobs_in_system_ = 0;

  // Worker queue.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<Job> jobs_;
  bool workers_stop_ = false;

  // Completion queue (workers -> loop).
  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  std::mutex shutdown_mutex_;
  bool stopped_ = false;
  std::atomic<bool> stop_requested_{false};
  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> busy_rejections_{0};
  std::atomic<size_t> coalesced_responses_{0};
  std::atomic<size_t> active_connections_{0};
  std::atomic<size_t> http_requests_{0};
};

}  // namespace

Result<std::unique_ptr<DiscServer>> DiscServer::Start(ServerOptions options) {
  if (options.workers == 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  auto server = std::make_unique<EventLoopServer>(std::move(options));
  DISC_RETURN_NOT_OK(server->Run());
  return std::unique_ptr<DiscServer>(std::move(server));
}

}  // namespace disc
