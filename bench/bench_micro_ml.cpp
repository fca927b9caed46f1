// Micro benchmarks — ML substrate (google-benchmark).
//
// Calibrates the per-step costs behind the CostModel: MF SGD steps at
// several embedding sizes, DNN minibatch training at the paper's 215k-
// parameter configuration, model serialization, the two merge flavours
// (pairwise RMW average and Metropolis–Hastings weighted D-PSGD average), and
// the D-PSGD merge straight from wire blobs at the Table II shape.
#include <benchmark/benchmark.h>

#include "data/movielens.hpp"
#include "ml/dnn.hpp"
#include "ml/mf.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;

data::Dataset bench_dataset() {
  data::SyntheticConfig config;
  config.n_users = 610;
  config.n_items = 9000;
  config.n_ratings = 20000;
  config.seed = 11;
  return data::generate_synthetic(config);
}

ml::MfConfig mf_config(const data::Dataset& d, std::size_t k) {
  ml::MfConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  config.embedding_dim = k;
  config.global_mean = static_cast<float>(d.mean_rating());
  return config;
}

void BM_MfSgdSteps(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(1);
  ml::MfModel model(mf_config(d, static_cast<std::size_t>(state.range(0))),
                    rng);
  Rng train_rng(2);
  for (auto _ : state) {
    model.train_epoch(d.ratings, train_rng);  // 500 steps (the paper's rate)
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              model.config().sgd_steps_per_epoch));
}
BENCHMARK(BM_MfSgdSteps)->Arg(10)->Arg(20)->Arg(50);

void BM_MfPredictRmse(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(3);
  ml::MfModel model(mf_config(d, 10), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.rmse(d.ratings));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.ratings.size()));
}
BENCHMARK(BM_MfPredictRmse);

void BM_MfSerialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(4);
  ml::MfModel model(mf_config(d, 10), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.wire_size()));
}
BENCHMARK(BM_MfSerialize);

void BM_MfDeserialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(5);
  ml::MfModel model(mf_config(d, 10), rng);
  const Bytes blob = model.serialize();
  for (auto _ : state) {
    model.deserialize(blob);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_MfDeserialize);

void BM_MfMergeRmw(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(6);
  ml::MfModel model(mf_config(d, 10), rng);
  Rng rng2(7);
  ml::MfModel alien(mf_config(d, 10), rng2);
  Rng train_rng(8);
  model.train_epoch(d.ratings, train_rng);
  alien.train_epoch(d.ratings, train_rng);
  for (auto _ : state) {
    const ml::MergeSource source{&alien, 0.5};
    model.merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.parameter_count()));
}
BENCHMARK(BM_MfMergeRmw);

void BM_MfMergeDpsgd(benchmark::State& state) {
  // Metropolis-Hastings weighted merge over `range(0)` neighbor models.
  const data::Dataset d = bench_dataset();
  Rng rng(9);
  ml::MfModel model(mf_config(d, 10), rng);
  const std::size_t peers = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<ml::MfModel>> aliens;
  std::vector<ml::MergeSource> sources;
  for (std::size_t p = 0; p < peers; ++p) {
    Rng peer_rng(100 + p);
    aliens.push_back(
        std::make_unique<ml::MfModel>(mf_config(d, 10), peer_rng));
    sources.push_back(
        ml::MergeSource{aliens.back().get(), 0.5 / static_cast<double>(peers)});
  }
  for (auto _ : state) {
    model.merge(sources, 0.5);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.parameter_count()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_MfMergeDpsgd)->Arg(2)->Arg(6)->Arg(27);

void BM_MlMergeSerialized(benchmark::State& state) {
  // One D-PSGD merge of `range(0)` neighbor models read straight from their
  // exact wire blobs, at the Table II model-sharing shape (128 users x 9,000
  // items, k = 10). Named after the end-to-end benchmark's `ml.merge` layer.
  // Every model trains a full pass first, so each has seen every rated row:
  // the steady-state mask shape of that cell.
  data::SyntheticConfig data_config = data::movielens_latest_config();
  data_config.n_users = 128;
  data_config.n_ratings = 20983;
  data_config.seed = 14;
  const data::Dataset d = data::generate_synthetic(data_config);
  const auto trained = [&](std::uint64_t seed) {
    Rng init_rng(seed);
    ml::MfModel model(mf_config(d, 10), init_rng);
    Rng train_rng(seed + 1);
    model.train_full_pass(d.ratings, train_rng);
    return model;
  };
  ml::MfModel model = trained(15);
  const std::size_t peers = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> blobs;
  std::vector<ml::SerializedSource> sources;
  for (std::size_t p = 0; p < peers; ++p) {
    blobs.push_back(trained(100 + 2 * p).serialize());
  }
  for (const Bytes& blob : blobs) {
    sources.push_back(
        ml::SerializedSource{blob, 0.5 / static_cast<double>(peers)});
  }
  for (auto _ : state) {
    model.merge_serialized(sources, 0.5);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blobs.front().size()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_MlMergeSerialized)->Name("ml.merge/serialized")->Arg(30);

void BM_DnnTrainBatch(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(10);
  ml::DnnConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;  // ~215k parameters at the paper's defaults
  ml::DnnModel model(config, rng);
  Rng train_rng(11);
  std::vector<data::Rating> batch(config.batch_size);
  for (auto& r : batch) {
    r = d.ratings[train_rng.uniform(d.ratings.size())];
  }
  for (auto _ : state) {
    model.train_batch(batch, train_rng);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_DnnTrainBatch);

void BM_DnnSerialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(12);
  ml::DnnConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  ml::DnnModel model(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.wire_size()));
}
BENCHMARK(BM_DnnSerialize);

}  // namespace

BENCHMARK_MAIN();
