#include "net/router.h"

#include <utility>

namespace semdrift {

ShardRouter::ShardRouter(const SnapshotReader* snapshot, RouterOptions options)
    : ShardRouter(snapshot, nullptr, std::move(options)) {}

ShardRouter::ShardRouter(SnapshotManager* manager, RouterOptions options)
    : ShardRouter(nullptr, manager, std::move(options)) {}

ShardRouter::ShardRouter(const SnapshotReader* snapshot, SnapshotManager* manager,
                         RouterOptions options)
    : manager_(manager),
      fixed_engine_(snapshot != nullptr
                        ? std::make_unique<QueryEngine>(snapshot, options.engine)
                        : nullptr),
      options_(std::move(options)),
      batcher_(EngineSource([this] { return Pin(); }), options_.batch) {}

EnginePin ShardRouter::Pin() const {
  if (manager_ != nullptr) return manager_->Pin();
  return EnginePin{fixed_engine_.get(), nullptr};
}

uint64_t ShardRouter::generation() const {
  return manager_ != nullptr ? manager_->generation()
                             : options_.engine.generation;
}

void ShardRouter::Submit(std::string line, RequestPriority priority,
                         std::function<void(std::string)> done) {
  const QueryType verb = VerbOf(line);
  if (verb == QueryType::kStats || verb == QueryType::kMetrics) {
    const EnginePin pin = Pin();
    done(pin.engine != nullptr ? pin.engine->Answer(line)
                               : std::string(kNoGenerationResponse));
    return;
  }
  batcher_.SubmitCallback(std::move(line), options_.batch.default_deadline_ms,
                          priority, std::move(done));
}

}  // namespace semdrift
