#include "net/bus.h"

#include <chrono>
#include <utility>

#include "common/rng.h"

namespace hermes {

MessageBus::MessageBus(Transport* transport, EndpointId self, Options options)
    : transport_(transport),
      self_(self),
      options_(options),
      m_calls_(MetricsRegistry::Global().GetCounter("msg.calls")),
      m_timeouts_(MetricsRegistry::Global().GetCounter("msg.timeouts")),
      m_decode_errors_(
          MetricsRegistry::Global().GetCounter("msg.decode_errors")),
      m_stale_replies_(
          MetricsRegistry::Global().GetCounter("msg.stale_replies")),
      m_retries_(MetricsRegistry::Global().GetCounter("msg.retries")),
      m_rtt_us_(MetricsRegistry::Global().GetHistogram("msg.rtt_us")),
      m_retry_latency_us_(
          MetricsRegistry::Global().GetHistogram("msg.retry_latency_us")) {
  MutexLock lock(&mu_);
  next_request_id_ = options_.first_request_id == 0 ? 1
                                                    : options_.first_request_id;
}

Status MessageBus::Start() {
  return transport_->OpenEndpoint(
      self_, [this](std::string frame) { OnFrame(std::move(frame)); });
}

Result<Envelope> MessageBus::Call(EndpointId dst, Envelope request) {
  request.src = self_;
  request.dst = dst;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::Unavailable("message bus: shut down");
    }
    request.request_id = next_request_id_++;
    waiting_.insert(request.request_id);
  }
  const std::uint64_t id = request.request_id;
  auto cleanup = [this, id]() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    waiting_.erase(id);
    done_.erase(id);
  };
  const std::uint32_t max_attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  const std::uint64_t start_us = SteadyNowMicros();
  m_calls_->Increment();
  Envelope reply;
  bool have_reply = false;
  std::uint32_t attempts_used = 1;
  Status last_error =
      Status::Unavailable("message bus: reply timed out (retryable)");
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential, deterministically jittered backoff before every
      // resend. The wait parks on reply_cv_ (never a raw sleep), so a
      // straggler reply from an earlier attempt completes the call
      // mid-backoff instead of after it.
      const auto backoff_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(BackoffUs(attempt, id));
      const WaitOutcome w = WaitForReply(id, backoff_deadline, &reply);
      if (w == WaitOutcome::kShutdown) {
        return Status::Unavailable("message bus: shut down");
      }
      if (w == WaitOutcome::kReply) {
        have_reply = true;
        break;
      }
      m_retries_->Increment();
      attempts_used = attempt + 1;
    }
    // Every attempt resends the SAME request id — the idempotency token.
    // A server that already applied this mutation replays its cached
    // reply instead of re-executing, which is what makes the retry loop
    // exactly-once rather than at-least-once.
    request.attempt = static_cast<std::uint16_t>(attempt);
    auto encoded = EncodeFrame(request);
    if (!encoded.ok()) {
      cleanup();
      return encoded.status();
    }
    // The pending-table mutex is NOT held across Send: a bounded inbox
    // can block the sender, and the reply handler needs the mutex to
    // complete this very call.
    const Status sent = transport_->Send(dst, std::move(*encoded));
    if (!sent.ok()) {
      last_error = sent;
      if (sent.IsNotFound() || sent.IsInvalidArgument()) {
        // No such endpoint / malformed destination: permanent, fail fast.
        cleanup();
        return sent;
      }
      continue;  // retryable send failure: back off, then resend
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(options_.call_timeout_us);
    const WaitOutcome w = WaitForReply(id, deadline, &reply);
    if (w == WaitOutcome::kShutdown) {
      return Status::Unavailable("message bus: shut down");
    }
    if (w == WaitOutcome::kReply) {
      have_reply = true;
      break;
    }
    m_timeouts_->Increment();
    last_error =
        Status::Unavailable("message bus: reply timed out (retryable)");
  }
  if (!have_reply) {
    cleanup();
    return last_error;
  }
  const std::uint64_t elapsed = SteadyNowMicros() - start_us;
  m_rtt_us_->Record(elapsed);
  if (attempts_used > 1) {
    // Latency distribution of calls that needed at least one retry: the
    // price of a lost frame under the exactly-once contract.
    m_retry_latency_us_->Record(elapsed);
  }
  return reply;
}

MessageBus::WaitOutcome MessageBus::WaitForReply(
    std::uint64_t id, std::chrono::steady_clock::time_point deadline,
    Envelope* out) {
  MutexLock lock(&mu_);
  for (;;) {
    auto it = done_.find(id);
    if (it != done_.end()) {
      *out = std::move(it->second);
      done_.erase(it);
      waiting_.erase(id);
      return WaitOutcome::kReply;
    }
    if (shutdown_) {
      waiting_.erase(id);
      return WaitOutcome::kShutdown;
    }
    if (reply_cv_.WaitUntil(&mu_, deadline) == std::cv_status::timeout &&
        done_.find(id) == done_.end() && !shutdown_) {
      // The id stays in waiting_: a later attempt (or a straggler reply
      // beating the next resend) can still complete this call.
      return WaitOutcome::kTimeout;
    }
  }
}

std::uint64_t MessageBus::BackoffUs(std::uint32_t attempt,
                                    std::uint64_t id) const {
  const std::uint64_t base = attempt >= 64
                                 ? options_.retry_backoff_us
                                 : options_.retry_backoff_us << (attempt - 1);
  if (base == 0) return 0;
  Rng jitter(options_.retry_jitter_seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
             attempt);
  return base + jitter.Uniform(base);
}

void MessageBus::Shutdown() {
  MutexLock lock(&mu_);
  shutdown_ = true;
  reply_cv_.NotifyAll();
}

void MessageBus::OnFrame(std::string frame) {
  auto env = DecodeFrame(frame);
  if (!env.ok()) {
    m_decode_errors_->Increment();
    return;
  }
  MutexLock lock(&mu_);
  if (waiting_.find(env->request_id) == waiting_.end()) {
    // Duplicate of an already-claimed reply, or a reply that raced its
    // own timeout. Either way the caller is gone.
    m_stale_replies_->Increment();
    return;
  }
  done_[env->request_id] = std::move(*env);
  reply_cv_.NotifyAll();
}

}  // namespace hermes
