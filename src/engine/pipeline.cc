#include "engine/pipeline.h"

namespace sphere::engine {

std::atomic<size_t> PipelineConfig::batch_size_{PipelineConfig::kDefaultBatchSize};
std::atomic<bool> PipelineConfig::streaming_{true};
std::atomic<bool> PipelineConfig::arena_statements_{true};
std::atomic<bool> PipelineConfig::observability_{true};
std::atomic<uint32_t> PipelineConfig::trace_sample_interval_{
    PipelineConfig::kDefaultTraceSampleInterval};
std::atomic<bool> PipelineConfig::proxy_multiplexing_{true};
std::atomic<int> PipelineConfig::proxy_max_connections_{0};
std::atomic<int> PipelineConfig::proxy_worker_threads_{0};
std::atomic<size_t> PipelineConfig::proxy_queue_depth_{
    PipelineConfig::kDefaultProxyQueueDepth};
std::atomic<int> PipelineConfig::concurrency_control_{
    static_cast<int>(ConcurrencyControl::kMvcc)};

}  // namespace sphere::engine
