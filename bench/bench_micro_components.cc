// Google-benchmark micro benchmarks for the library's hot components:
// extraction throughput, ranking-model cost, mutex-index construction,
// feature extraction, rollback cascades, kernel PCA (fit and projection),
// the manifold regularizer and the Algorithm-1 multi-task solve.

#include <benchmark/benchmark.h>

#include "corpus/generator.h"
#include "corpus/world.h"
#include "dp/detector.h"
#include "dp/features.h"
#include "dp/seed_labeling.h"
#include "extract/extractor.h"
#include "extract/hearst_parser.h"
#include "kb/knowledge_base.h"
#include "ml/kpca.h"
#include "ml/manifold.h"
#include "ml/multitask.h"
#include "ml/random_forest.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

/// Shared fixture state, built once (static locals are fine in a bench
/// binary's single-threaded setup).
struct MicroWorld {
  World world;
  Corpus corpus;

  static const MicroWorld& Get() {
    static MicroWorld* instance = [] {
      auto* m = new MicroWorld();
      WorldSpec wspec;
      wspec.num_concepts = 120;
      Rng wrng(99);
      m->world = GenerateWorld(wspec, &wrng);
      CorpusSpec cspec;
      cspec.num_sentences = 20000;
      cspec.render_text = true;
      Rng crng(100);
      m->corpus = GenerateCorpus(m->world, cspec, &crng);
      return m;
    }();
    return *instance;
  }

 private:
  MicroWorld() : world(World::Builder().Build()) {}
};

KnowledgeBase ExtractMicro() {
  const MicroWorld& m = MicroWorld::Get();
  KnowledgeBase kb;
  IterativeExtractor extractor(&m.corpus.sentences, ExtractorOptions{});
  extractor.Run(&kb);
  return kb;
}

void BM_CorpusGeneration(benchmark::State& state) {
  const MicroWorld& m = MicroWorld::Get();
  CorpusSpec spec;
  spec.num_sentences = static_cast<int>(state.range(0));
  spec.render_text = false;
  for (auto _ : state) {
    Rng rng(7);
    Corpus corpus = GenerateCorpus(m.world, spec, &rng);
    benchmark::DoNotOptimize(corpus.sentences.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorpusGeneration)->Arg(2000)->Arg(10000);

void BM_IterativeExtraction(benchmark::State& state) {
  const MicroWorld& m = MicroWorld::Get();
  for (auto _ : state) {
    KnowledgeBase kb;
    IterativeExtractor extractor(&m.corpus.sentences, ExtractorOptions{});
    extractor.Run(&kb);
    benchmark::DoNotOptimize(kb.num_live_pairs());
  }
  state.SetItemsProcessed(state.iterations() * m.corpus.sentences.size());
}
BENCHMARK(BM_IterativeExtraction);

void BM_HearstParse(benchmark::State& state) {
  const MicroWorld& m = MicroWorld::Get();
  HearstParser parser(&m.world.concept_vocab(), m.world.instance_vocab());
  size_t index = 0;
  const auto& sentences = m.corpus.sentences.sentences();
  for (auto _ : state) {
    const auto& sentence = sentences[index++ % sentences.size()];
    benchmark::DoNotOptimize(parser.Parse(sentence.text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HearstParse);

void BM_RankModel(benchmark::State& state) {
  static KnowledgeBase* kb = new KnowledgeBase(ExtractMicro());
  RankModel model = static_cast<RankModel>(state.range(0));
  for (auto _ : state) {
    auto scores = ScoreConcept(*kb, ConceptId(0), model);
    benchmark::DoNotOptimize(scores.size());
  }
}
BENCHMARK(BM_RankModel)
    ->Arg(static_cast<int>(RankModel::kFrequency))
    ->Arg(static_cast<int>(RankModel::kPageRank))
    ->Arg(static_cast<int>(RankModel::kRandomWalk));

void BM_MutexIndexBuild(benchmark::State& state) {
  static KnowledgeBase* kb = new KnowledgeBase(ExtractMicro());
  const MicroWorld& m = MicroWorld::Get();
  for (auto _ : state) {
    MutexIndex index(*kb, m.world.num_concepts());
    benchmark::DoNotOptimize(index.num_concepts());
  }
}
BENCHMARK(BM_MutexIndexBuild);

void BM_FeatureExtraction(benchmark::State& state) {
  static KnowledgeBase* kb = new KnowledgeBase(ExtractMicro());
  const MicroWorld& m = MicroWorld::Get();
  static MutexIndex* mutex = new MutexIndex(*kb, m.world.num_concepts());
  static ScoreCache* scores = new ScoreCache(kb, RankModel::kRandomWalk);
  static FeatureExtractor* features = new FeatureExtractor(kb, mutex, scores);
  auto instances = kb->LiveInstancesOf(ConceptId(0));
  size_t index = 0;
  for (auto _ : state) {
    InstanceId e = instances[index++ % instances.size()];
    benchmark::DoNotOptimize(features->Extract(ConceptId(0), e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction);

void BM_RollbackCascade(benchmark::State& state) {
  const MicroWorld& m = MicroWorld::Get();
  CascadePolicy policy = static_cast<CascadePolicy>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    KnowledgeBase kb = ExtractMicro();
    // Pick popular iteration-1 pairs of concept 0 to remove.
    auto core = kb.Iter1InstancesOf(ConceptId(0));
    state.ResumeTiming();
    int rolled = 0;
    for (size_t i = 0; i < core.size() && i < 10; ++i) {
      rolled += kb.RemovePair(IsAPair{ConceptId(0), core[i].first}, policy);
    }
    benchmark::DoNotOptimize(rolled);
  }
  (void)m;
}
BENCHMARK(BM_RollbackCascade)
    ->Arg(static_cast<int>(CascadePolicy::kAllTriggersDead))
    ->Arg(static_cast<int>(CascadePolicy::kAnyTriggerDead))
    ->Unit(benchmark::kMillisecond);

// --- Parallel-stage benchmarks: each runs at 1 and 4 worker threads so the
// thread-count scaling of the per-concept pipeline is visible in one run.
// Output is bit-identical across thread counts; only the time changes.

std::vector<ConceptId> MicroScope() {
  std::vector<ConceptId> scope;
  for (size_t ci = 0; ci < MicroWorld::Get().world.num_concepts(); ++ci) {
    scope.push_back(ConceptId(static_cast<uint32_t>(ci)));
  }
  return scope;
}

void BM_ScoreCacheWarm(benchmark::State& state) {
  static KnowledgeBase* kb = new KnowledgeBase(ExtractMicro());
  std::vector<ConceptId> scope = MicroScope();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ScoreCache scores(kb, RankModel::kRandomWalk);
    scores.Warm(scope);
    benchmark::DoNotOptimize(scores.Concept(ConceptId(0)).size());
  }
  SetGlobalThreadCount(0);
  state.SetItemsProcessed(state.iterations() * scope.size());
}
BENCHMARK(BM_ScoreCacheWarm)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CollectTrainingData(benchmark::State& state) {
  static KnowledgeBase* kb = new KnowledgeBase(ExtractMicro());
  const MicroWorld& m = MicroWorld::Get();
  static MutexIndex* mutex = new MutexIndex(*kb, m.world.num_concepts());
  std::vector<ConceptId> scope = MicroScope();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  ScoreCache scores(kb, RankModel::kRandomWalk);
  scores.Warm(scope);
  FeatureExtractor features(kb, mutex, &scores);
  SeedLabeler seeds(kb, mutex, [](const IsAPair&) { return false; });
  for (auto _ : state) {
    TrainingData data = CollectTrainingData(*kb, &features, seeds, scope);
    benchmark::DoNotOptimize(data.size());
  }
  SetGlobalThreadCount(0);
  state.SetItemsProcessed(state.iterations() * scope.size());
}
BENCHMARK(BM_CollectTrainingData)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  // Planted 3-class features, same shape as the DP detector's input.
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    int label = i % 3;
    x.push_back({rng.NextDouble() + label, rng.NextDouble(),
                 rng.NextDouble() * (label + 1), rng.NextDouble()});
    y.push_back(label);
  }
  RandomForestOptions options;
  options.num_trees = 50;
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    RandomForest forest;
    forest.Fit(x, y, 3, options);
    benchmark::DoNotOptimize(forest.num_trees());
  }
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_ForestFit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_KernelPcaFit(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.NextGaussian();
  for (auto _ : state) {
    KernelPca kpca;
    KpcaOptions options;
    benchmark::DoNotOptimize(kpca.Fit(x, options));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KernelPcaFit)->Arg(100)->Arg(300)->Arg(600)->Unit(benchmark::kMillisecond);

void BM_KpcaTransform(benchmark::State& state) {
  // One out-of-sample projection against an n-row fit: the per-row cost of
  // classify and of the detector's task build. 94 components, as the
  // detector keeps on the batch-run worlds.
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.NextGaussian();
  KpcaOptions options;
  options.max_components = 94;
  KernelPca kpca;
  if (!kpca.Fit(x, options)) {
    state.SkipWithError("KPCA fit failed");
    return;
  }
  std::vector<std::vector<double>> queries(64, std::vector<double>(4));
  for (auto& q : queries)
    for (double& v : q) v = rng.NextGaussian();
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kpca.Transform(queries[next]));
    next = (next + 1) % queries.size();
  }
  state.counters["components"] = static_cast<double>(kpca.num_components());
}
BENCHMARK(BM_KpcaTransform)->Arg(600)->Unit(benchmark::kMicrosecond);

void BM_ManifoldRegularizer(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Matrix x(n, 20);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < 20; ++j) x(i, j) = rng.NextGaussian();
  ManifoldOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildManifoldRegularizer(x, options).Trace());
  }
}
BENCHMARK(BM_ManifoldRegularizer)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_TrainMultiTask(benchmark::State& state) {
  // Algorithm 1 at the detector's shape: 240 tasks of 14 labeled rows in an
  // r = 94 KPCA space, with the manifold regularizer of a 600-row pool.
  constexpr size_t kR = 94;
  Rng rng(8);
  Matrix pool(600, kR);
  for (size_t i = 0; i < pool.rows(); ++i)
    for (size_t j = 0; j < kR; ++j) pool(i, j) = rng.NextGaussian();
  Matrix a = BuildManifoldRegularizer(pool, ManifoldOptions{});
  std::vector<LearningTask> tasks(240);
  for (LearningTask& task : tasks) {
    task.xl = Matrix(14, kR);
    task.y = Matrix(14, 3);
    for (size_t i = 0; i < 14; ++i) {
      for (size_t j = 0; j < kR; ++j) task.xl(i, j) = rng.NextGaussian();
      task.y(i, i % 3) = 1.0;
    }
  }
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  size_t iterations = 0;
  for (auto _ : state) {
    MultiTaskResult result = TrainMultiTask(tasks, a, MultiTaskOptions{});
    iterations = result.objective_trace.size();
    benchmark::DoNotOptimize(result.w.data());
  }
  SetGlobalThreadCount(0);
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_TrainMultiTask)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semdrift

BENCHMARK_MAIN();
