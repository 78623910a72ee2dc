// The lrtd request handler: batched multi-tenant analysis over the wire
// vocabulary (DESIGN.md §5k), independent of any transport.
//
// One Service instance serves many workloads concurrently. Workloads are
// keyed by lrt::fingerprint() of their canonical spec+arch serialization;
// a hot workload stays *resident* — its built models plus a live
// reliability::SrgEvaluator primed with the last analyzed implementation,
// the only copy of it — so an analyze request that mutates one task's
// host set or re-execution count costs a single dirty-cone
// re-propagation instead of a full build-and-analyze. Delta analyzes
// answer with a compact verdict ({reliable, unsatisfied_comms}) so the
// response cost matches the work; "full_report": true opts into the full
// per-communicator report, written by the same code as the cold path's.
// The resident set is LRU-bounded (ServiceOptions::max_resident_workloads);
// an evicted workload is simply rebuilt on its next full request.
//
// Guarantees:
//  * Responses are byte-identical to the one-shot facade calls they wrap
//    (the SrgEvaluator bit-identity contract carries the hit path), and
//    depend only on the request sequence observed — never on thread
//    count, cache temperature, or wall-clock time. Thread-variant fields
//    (campaign timing, search-effort counters) are excluded from the
//    wire.
//  * A failed request never poisons resident state: validation runs
//    before any mutation, and an evaluator is (re)primed only after the
//    full implementation built and passed analyze()'s precondition.
//  * Requests are idempotent by id: a replayed id with the same request
//    bytes returns the cached response bytes without re-executing (the
//    reply shares the cached buffer; nothing is copied). A
//    reused id whose request differs (by a 64-bit FNV-1a digest) gets a
//    typed kAlreadyExists error and caches nothing. Responses that advise
//    retry (kUnavailable, kDeadlineExceeded) are never cached.
//  * `deadline_ms` is enforced at verb boundaries: before a verb runs
//    and between batch items, where an expired deadline degrades the
//    remaining items to typed kDeadlineExceeded entries (partial
//    results) instead of discarding the finished ones.
#ifndef LRT_SERVICE_SERVICE_H_
#define LRT_SERVICE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/sink.h"
#include "service/protocol.h"
#include "support/status.h"

namespace lrt::service {

/// Payload bytes the idempotent-replay cache may hold, a second limit
/// on the same FIFO as ServiceOptions::max_idempotency_entries: whichever
/// bound is hit first evicts the oldest ids. A reply larger than the
/// whole bound is not remembered. 1 MiB holds every compact delta reply
/// of a full count bound several times over, or ~50 full reports of a
/// 200-communicator workload.
inline constexpr std::size_t kMaxIdempotencyBytes = std::size_t{1} << 20;

struct ServiceOptions {
  /// Workloads kept resident (built models + primed evaluator); least
  /// recently used is evicted beyond this. Minimum 1.
  std::size_t max_resident_workloads = 8;
  /// Request ids remembered for idempotent replay (FIFO eviction).
  std::size_t max_idempotency_entries = 1024;
  /// Monotonic milliseconds for deadline accounting; null uses
  /// std::chrono::steady_clock. Injectable for deterministic tests.
  std::function<std::int64_t()> clock_ms;
  /// Observability: service.* counters, per-request "service" spans, and
  /// the service.request_us latency histogram. Null falls back to the
  /// process-global sink.
  obs::Sink* sink = nullptr;
};

struct ServiceReply {
  /// The response frame payload (JSON, no length prefix): a view of
  /// `buffer`, valid while this reply or a copy of it holds the buffer.
  std::string_view frame;
  /// The frame's bytes, written once by the handler and shared with the
  /// idempotent-replay cache when remembered: a replay hands out the
  /// cached buffer itself.
  std::shared_ptr<const std::string> buffer;
  /// True once a shutdown request was accepted; the transport should
  /// stop accepting work after delivering this reply.
  bool shutdown = false;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Handles one request frame end to end. Thread-safe across frames;
  /// the transport must deliver each connection's frames in submission
  /// order (per-connection FIFO) for the determinism guarantee to apply
  /// to that connection's response sequence.
  [[nodiscard]] ServiceReply handle(std::string_view request_frame);

  /// Workloads currently resident (for tests and the bench).
  [[nodiscard]] std::size_t resident_count() const;

 private:
  /// Test-only reader of private state (tests/service_test.cpp).
  friend class ServiceTestPeer;

  struct Resident;

  /// mark() of the resident evaluator for `fingerprint`, or nullopt when
  /// the workload is not resident or has no evaluator. Read by tests.
  [[nodiscard]] std::optional<std::size_t> resident_trail_mark(
      std::uint64_t fingerprint) const;
  /// Payload bytes held by the replay cache. Read by tests.
  [[nodiscard]] std::size_t replay_cache_bytes() const;

  [[nodiscard]] std::int64_t now_ms() const;
  [[nodiscard]] obs::Sink* sink() const;

  [[nodiscard]] Result<std::shared_ptr<Resident>> resolve_workload(
      const JsonValue& body, std::string_view where);
  void touch_locked(std::uint64_t fingerprint);

  /// Verbs write their result value into `json`, the reply frame opened
  /// by begin_ok_frame. On error the writer holds a partial value and is
  /// dropped; the caller builds an error frame instead.
  [[nodiscard]] Status run_verb(const Request& request,
                                std::int64_t arrival_ms,
                                std::optional<std::int64_t> deadline_at_ms,
                                bool* shutdown, bool* deadline_in_batch,
                                JsonWriter& json);
  /// run_verb inside the reply envelope: `*frame` receives the ok frame
  /// the verb wrote, or the error frame of the status returned.
  [[nodiscard]] Status run_to_frame(const Request& request,
                                    std::int64_t arrival_ms,
                                    std::optional<std::int64_t> deadline_at_ms,
                                    bool* shutdown, bool* deadline_in_batch,
                                    std::string* frame);
  [[nodiscard]] Status do_analyze(const JsonValue& body, JsonWriter& json);
  [[nodiscard]] Status do_synthesize(const JsonValue& body,
                                     JsonWriter& json);
  [[nodiscard]] Status do_validate(const JsonValue& body, JsonWriter& json);
  [[nodiscard]] Status do_lint(const JsonValue& body, JsonWriter& json);
  [[nodiscard]] Status do_update_check(const JsonValue& body,
                                       JsonWriter& json);
  [[nodiscard]] Status do_batch(const JsonValue& body,
                                std::int64_t arrival_ms,
                                std::optional<std::int64_t> deadline_at_ms,
                                bool* deadline_in_batch, JsonWriter& json);
  /// Remembers `frame` for replay under `id`, evicting the oldest ids
  /// beyond max_idempotency_entries or kMaxIdempotencyBytes.
  void remember_reply(const std::string& id, std::uint64_t digest,
                      std::shared_ptr<const std::string> frame);

  ServiceOptions options_;

  mutable std::mutex cache_mutex_;
  /// Most recently used first.
  std::list<std::uint64_t> lru_;
  struct CacheEntry {
    std::shared_ptr<Resident> resident;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  std::unordered_map<std::uint64_t, CacheEntry> residents_;

  mutable std::mutex idempotency_mutex_;
  /// A cached response and the digest (support/hash.h hash_bytes) of the
  /// request bytes that produced it.
  struct Replay {
    std::uint64_t digest = 0;
    std::shared_ptr<const std::string> frame;
  };
  std::unordered_map<std::string, Replay> replays_;
  std::list<std::string> replay_order_;  ///< oldest first
  std::size_t replay_bytes_ = 0;         ///< sum of cached frame sizes
};

}  // namespace lrt::service

#endif  // LRT_SERVICE_SERVICE_H_
