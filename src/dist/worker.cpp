#include "dist/worker.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <fcntl.h>
#include <mutex>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "dist/faults.hpp"
#include "dist/wire.hpp"

namespace latticesched::dist {

namespace {

/// Raw best-effort write used by the truncate fault (the deliberately
/// broken path must not go through write_frame).
void write_raw(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// The worker's outbound channel: every send holds one mutex, so
/// frames from the main thread (RESULT/ERROR) and the reader thread
/// (PONG) never interleave — and a fault-injected hang sleeping under
/// the lock blocks PONGs too, which is exactly what makes a hung
/// worker detectable.
struct WorkerChannel {
  int fd;
  std::mutex write_mu;
  WireFaultInjector faults;

  /// Counted, fault-gated send for protocol frames.
  bool send(const WireMessage& message) {
    std::lock_guard<std::mutex> lock(write_mu);
    switch (faults.on_frame()) {  // may sleep or _Exit under the lock
      case WireFaultInjector::Decision::kDrop:
        return true;  // pretend success; the frame vanishes
      case WireFaultInjector::Decision::kTruncate: {
        // Half a frame with an honest length prefix, then wedge: the
        // coordinator's deadline read stalls mid-frame and kills us.
        std::string payload = message.verb + "\n" + message.body;
        const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
        const char prefix[4] = {static_cast<char>(len & 0xff),
                                static_cast<char>((len >> 8) & 0xff),
                                static_cast<char>((len >> 16) & 0xff),
                                static_cast<char>((len >> 24) & 0xff)};
        write_raw(fd, prefix, sizeof prefix);
        write_raw(fd, payload.data(), payload.size() / 2);
        std::this_thread::sleep_for(std::chrono::hours(1));
        return false;
      }
      case WireFaultInjector::Decision::kSend:
        break;
    }
    return write_frame(fd, message);
  }

  /// Heartbeat reply: NOT counted by the injector (PING arrival timing
  /// is nondeterministic), but still serialized by the write lock.
  bool send_pong() {
    std::lock_guard<std::mutex> lock(write_mu);
    return write_frame(fd, {"PONG", ""});
  }
};

}  // namespace

int run_worker(int fd, const WorkerOptions& options) {
  PlanService service;
  FaultPlan plan;
  if (!options.fault_spec.empty()) {
    try {
      plan = FaultPlan::parse(options.fault_spec);
    } catch (const std::exception& e) {
      (void)write_frame(fd, {"ERROR", e.what()});
      return 1;
    }
  }
  if (!options.cache_dir.empty()) {
    try {
      service.tiling_cache().set_persist_dir(options.cache_dir);
    } catch (const std::exception& e) {
      (void)write_frame(fd, {"ERROR", e.what()});
      return 1;
    }
  }
  if (plan.has_cache_faults()) {
    service.tiling_cache().set_write_corruption_hook(
        cache_corruption_hook(plan));
  }

  WorkerChannel channel{fd, {}, WireFaultInjector(plan)};

  if (!channel.send(
          {"HELLO",
           "{\"protocol\": " + std::to_string(kProtocolVersion) + "}"})) {
    // The coordinator is already gone (it shut down or died between our
    // spawn and our handshake).  Same contract as EOF-without-SHUTDOWN
    // below: exiting IS the cleanup, not a failure — a nonzero exit here
    // would count a healthy-but-late respawn as a worker failure.
    return 0;
  }

  // Inbox fed by the reader thread; PINGs are answered there and never
  // reach the main loop.  The self-pipe lets run_worker stop the reader
  // on every exit path (in-process test callers need the thread joined
  // and the fd quiet before this function returns).
  std::mutex inbox_mu;
  std::condition_variable inbox_cv;
  std::deque<WireMessage> inbox;
  bool reader_done = false;
  int stop_pipe[2] = {-1, -1};
  if (::pipe2(stop_pipe, O_CLOEXEC) != 0) {
    (void)channel.send({"ERROR", "worker: cannot create stop pipe"});
    return 1;
  }

  std::thread reader([&] {
    for (;;) {
      pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe[0], POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents != 0) break;  // run_worker is shutting down
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WireMessage message;
      if (!read_frame(fd, &message)) break;  // EOF or protocol garbage
      if (message.verb == "PING") {
        (void)channel.send_pong();
        continue;
      }
      const bool is_shutdown = message.verb == "SHUTDOWN";
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        inbox.push_back(std::move(message));
      }
      inbox_cv.notify_one();
      if (is_shutdown) break;  // nothing follows a SHUTDOWN
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      reader_done = true;
    }
    inbox_cv.notify_one();
  });

  const auto stop_reader = [&] {
    (void)!::write(stop_pipe[1], "x", 1);
    reader.join();
    ::close(stop_pipe[0]);
    ::close(stop_pipe[1]);
  };

  int exit_code = 0;
  for (;;) {
    WireMessage message;
    {
      std::unique_lock<std::mutex> lock(inbox_mu);
      inbox_cv.wait(lock, [&] { return reader_done || !inbox.empty(); });
      if (inbox.empty()) {
        // EOF without SHUTDOWN: coordinator died; exiting is the cleanup.
        break;
      }
      message = std::move(inbox.front());
      inbox.pop_front();
    }
    if (message.verb == "SHUTDOWN") break;
    if (message.verb != "ASSIGN") {
      (void)channel.send(
          {"ERROR", "unexpected verb '" + message.verb + "'"});
      exit_code = 1;
      break;
    }
    std::string shard_id, items_json;
    split_body(message.body, &shard_id, &items_json);
    try {
      const std::vector<BatchItem> items = parse_batch_items_json(items_json);
      const BatchReport report = service.run(items);
      if (!channel.send({"RESULT",
                         shard_id + "\n" + batch_report_to_json(report)})) {
        exit_code = 1;
        break;
      }
    } catch (const std::exception& e) {
      // Unknown backends and malformed assignments are coordinator bugs,
      // not per-item failures (PlanService reports those inside the
      // BatchReport); surface them and stop.
      (void)channel.send({"ERROR", e.what()});
      exit_code = 1;
      break;
    }
  }
  stop_reader();
  return exit_code;
}

}  // namespace latticesched::dist
