// A completion sink for tests that drive a sim platform directly.
#pragma once

#include <functional>
#include <utility>

#include "sim/platform.hpp"

namespace pga::sim {

/// Registers with `platform` on construction, removes itself on
/// destruction, and hands every result to `callback`, which may submit
/// again through submit().
class CallbackSink final : public CompletionSink {
 public:
  using Callback = std::function<void(const AttemptResult&)>;

  explicit CallbackSink(ExecutionPlatform& platform, Callback callback = {})
      : callback(std::move(callback)), platform_(platform), id_(platform.add_sink(*this)) {}
  ~CallbackSink() { platform_.remove_sink(id_); }
  CallbackSink(const CallbackSink&) = delete;
  CallbackSink& operator=(const CallbackSink&) = delete;

  void submit(const SimJob& job) { platform_.submit(id_, job); }
  [[nodiscard]] SinkId id() const { return id_; }
  void on_attempt(const AttemptResult& result) override { callback(result); }

  Callback callback;

 private:
  ExecutionPlatform& platform_;
  SinkId id_;
};

}  // namespace pga::sim
