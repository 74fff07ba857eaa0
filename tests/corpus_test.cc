#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "corpus/generator.h"
#include "corpus/renderer.h"
#include "corpus/world.h"

namespace semdrift {
namespace {

World BuildToyWorld() {
  World::Builder builder;
  ConceptId animal = builder.AddConcept("animal");
  ConceptId food = builder.AddConcept("food");
  InstanceId dog = builder.AddInstance("dog");
  InstanceId cat = builder.AddInstance("cat");
  InstanceId chicken = builder.AddInstance("chicken");
  InstanceId pork = builder.AddInstance("pork");
  builder.AddMembership(animal, dog, 1.0);
  builder.AddMembership(animal, cat, 0.5);
  builder.AddMembership(animal, chicken, 0.8);
  builder.AddMembership(food, pork, 1.0);
  builder.AddMembership(food, chicken, 0.05);
  builder.AddPolyseme(chicken, animal, food);
  builder.AddConfusable(animal, food);
  builder.AddConfusable(food, animal);
  builder.MarkVerified(animal, dog);
  return builder.Build();
}

TEST(WorldBuilderTest, MembershipAndNames) {
  World world = BuildToyWorld();
  EXPECT_EQ(world.num_concepts(), 2u);
  EXPECT_EQ(world.num_instances(), 4u);
  ConceptId animal = world.FindConcept("animal");
  InstanceId dog = world.FindInstance("dog");
  ASSERT_TRUE(animal.valid());
  ASSERT_TRUE(dog.valid());
  EXPECT_TRUE(world.IsTrueMember(animal, dog));
  EXPECT_FALSE(world.IsTrueMember(world.FindConcept("food"), dog));
  EXPECT_EQ(world.ConceptName(animal), "animal");
  EXPECT_EQ(world.InstanceName(dog), "dog");
}

TEST(WorldBuilderTest, LookupMissReturnsInvalid) {
  World world = BuildToyWorld();
  EXPECT_FALSE(world.FindConcept("galaxy").valid());
  EXPECT_FALSE(world.FindInstance("unicorn").valid());
}

TEST(WorldBuilderTest, DuplicateMembershipIgnored) {
  World::Builder builder;
  ConceptId c = builder.AddConcept("c");
  InstanceId e = builder.AddInstance("e");
  builder.AddMembership(c, e, 1.0);
  builder.AddMembership(c, e, 9.0);
  World world = builder.Build();
  EXPECT_EQ(world.Members(c).size(), 1u);
  EXPECT_EQ(world.MemberWeights(c)[0], 1.0);
}

TEST(WorldBuilderTest, PolysemyTracked) {
  World world = BuildToyWorld();
  InstanceId chicken = world.FindInstance("chicken");
  EXPECT_EQ(world.ConceptsOf(chicken).size(), 2u);
  ConceptId food = world.FindConcept("food");
  const auto& into_food = world.PolysemesIntoGuest(food);
  ASSERT_EQ(into_food.size(), 1u);
  EXPECT_EQ(into_food[0].instance, chicken);
  EXPECT_EQ(into_food[0].home, world.FindConcept("animal"));
}

TEST(WorldBuilderTest, VerifiedSubset) {
  World world = BuildToyWorld();
  EXPECT_TRUE(world.IsVerified(world.FindConcept("animal"), world.FindInstance("dog")));
  EXPECT_FALSE(world.IsVerified(world.FindConcept("animal"), world.FindInstance("cat")));
}

TEST(WorldBuilderTest, TrulyMutexDetectsSharedMembers) {
  World world = BuildToyWorld();
  // animal and food share chicken, so they are not truly mutex.
  EXPECT_FALSE(world.TrulyMutex(world.FindConcept("animal"), world.FindConcept("food")));
  EXPECT_FALSE(world.TrulyMutex(world.FindConcept("animal"), world.FindConcept("animal")));
}

TEST(WorldBuilderTest, TwinsAreNotMutex) {
  World::Builder builder;
  ConceptId a = builder.AddConcept("nation");
  ConceptId b = builder.AddConcept("country");
  builder.SetSimilarTwins(a, b);
  World world = builder.Build();
  EXPECT_EQ(world.SimilarTwin(a), b);
  EXPECT_EQ(world.SimilarTwin(b), a);
  EXPECT_FALSE(world.TrulyMutex(a, b));
}

TEST(GenerateWorldTest, RespectsSpecCounts) {
  WorldSpec spec;
  spec.num_concepts = 30;
  spec.named_concepts = {"animal", "food"};
  Rng rng(5);
  World world = GenerateWorld(spec, &rng);
  EXPECT_GE(world.num_concepts(), 30u);  // Twins may add a few.
  EXPECT_EQ(world.ConceptName(ConceptId(0)), "animal");
  EXPECT_EQ(world.ConceptName(ConceptId(1)), "food");
  for (size_t ci = 0; ci < 30; ++ci) {
    EXPECT_GE(world.Members(ConceptId(static_cast<uint32_t>(ci))).size(),
              static_cast<size_t>(spec.min_instances));
  }
}

TEST(GenerateWorldTest, DeterministicInSeed) {
  WorldSpec spec;
  spec.num_concepts = 20;
  Rng rng1(77);
  Rng rng2(77);
  World a = GenerateWorld(spec, &rng1);
  World b = GenerateWorld(spec, &rng2);
  ASSERT_EQ(a.num_concepts(), b.num_concepts());
  ASSERT_EQ(a.num_instances(), b.num_instances());
  for (size_t ci = 0; ci < a.num_concepts(); ++ci) {
    ConceptId c(static_cast<uint32_t>(ci));
    EXPECT_EQ(a.ConceptName(c), b.ConceptName(c));
    EXPECT_EQ(a.Members(c), b.Members(c));
  }
}

TEST(GenerateWorldTest, WeightsDecreaseWithRankForBaseMembers) {
  WorldSpec spec;
  spec.num_concepts = 10;
  spec.polysemy_rate = 0.0;  // Keep weights purely Zipf.
  spec.similar_twin_rate = 0.0;
  Rng rng(9);
  World world = GenerateWorld(spec, &rng);
  for (size_t ci = 0; ci < world.num_concepts(); ++ci) {
    const auto& weights = world.MemberWeights(ConceptId(static_cast<uint32_t>(ci)));
    for (size_t i = 1; i < weights.size(); ++i) {
      EXPECT_LE(weights[i], weights[i - 1]);
    }
  }
}

TEST(GenerateWorldTest, PolysemesAreDualMembers) {
  WorldSpec spec;
  spec.num_concepts = 40;
  spec.polysemy_rate = 0.3;
  Rng rng(11);
  World world = GenerateWorld(spec, &rng);
  ASSERT_FALSE(world.polysemes().empty());
  for (const auto& polyseme : world.polysemes()) {
    EXPECT_TRUE(world.IsTrueMember(polyseme.home, polyseme.instance));
    EXPECT_TRUE(world.IsTrueMember(polyseme.guest, polyseme.instance));
    EXPECT_NE(polyseme.home, polyseme.guest);
  }
}

TEST(GenerateWorldTest, ConfusablesAreSymmetricNonSelf) {
  WorldSpec spec;
  spec.num_concepts = 25;
  Rng rng(13);
  World world = GenerateWorld(spec, &rng);
  for (size_t ci = 0; ci < world.num_concepts(); ++ci) {
    ConceptId c(static_cast<uint32_t>(ci));
    for (ConceptId other : world.Confusables(c)) {
      EXPECT_NE(other, c);
      const auto& back = world.Confusables(other);
      EXPECT_NE(std::find(back.begin(), back.end(), c), back.end());
    }
  }
}

class RendererTest : public ::testing::Test {
 protected:
  RendererTest() : world_(BuildToyWorld()), renderer_(&world_) {}
  World world_;
  SentenceRenderer renderer_;
  Rng rng_{99};
};

TEST_F(RendererTest, UnambiguousMentionsPluralAndInstances) {
  ConceptId animal = world_.FindConcept("animal");
  std::vector<InstanceId> list{world_.FindInstance("dog"), world_.FindInstance("cat")};
  std::string text = renderer_.RenderUnambiguous(animal, list, &rng_);
  EXPECT_NE(text.find("animals"), std::string::npos);
  EXPECT_NE(text.find("such as"), std::string::npos);
  EXPECT_NE(text.find("dog"), std::string::npos);
  EXPECT_NE(text.find("cat"), std::string::npos);
}

TEST_F(RendererTest, AmbiguousMentionsBothConcepts) {
  ConceptId animal = world_.FindConcept("animal");
  ConceptId food = world_.FindConcept("food");
  std::vector<InstanceId> list{world_.FindInstance("pork")};
  std::string text = renderer_.RenderAmbiguous(food, animal, list, &rng_);
  EXPECT_NE(text.find("foods"), std::string::npos);
  EXPECT_NE(text.find("animals"), std::string::npos);
  EXPECT_LT(text.find("foods"), text.find("animals"));  // Head first.
}

TEST_F(RendererTest, OtherThanShape) {
  ConceptId animal = world_.FindConcept("animal");
  ConceptId food = world_.FindConcept("food");
  std::vector<InstanceId> list{world_.FindInstance("cat")};
  std::string text = renderer_.RenderOtherThan(animal, food, list, &rng_);
  EXPECT_NE(text.find("other than"), std::string::npos);
}

class GeneratorTest : public ::testing::Test {
 protected:
  World world_{[] {
    WorldSpec spec;
    spec.num_concepts = 40;
    Rng rng(21);
    return GenerateWorld(spec, &rng);
  }()};
};

TEST_F(GeneratorTest, ProducesRequestedKinds) {
  CorpusSpec spec;
  spec.num_sentences = 4000;
  Rng rng(31);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  ASSERT_GT(corpus.sentences.size(), 3000u);
  ASSERT_EQ(corpus.sentences.size(), corpus.truths.size());
  size_t counts[4] = {0, 0, 0, 0};
  for (const auto& truth : corpus.truths) ++counts[static_cast<int>(truth.kind)];
  EXPECT_GT(counts[0], 0u);  // Unambiguous.
  EXPECT_GT(counts[1], 0u);  // Ambiguous.
  EXPECT_GT(counts[2], 0u);  // Misparse.
  EXPECT_GT(counts[3], 0u);  // Wrong fact.
  // Ambiguity fraction near spec.
  double amb = static_cast<double>(counts[1]) / corpus.sentences.size();
  EXPECT_NEAR(amb, spec.frac_ambiguous, 0.05);
}

TEST_F(GeneratorTest, UnambiguousSentencesStateTrueFacts) {
  CorpusSpec spec;
  spec.num_sentences = 2000;
  spec.wrongfact_rate = 0.0;
  spec.misparse_rate = 0.0;
  Rng rng(33);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  for (const auto& sentence : corpus.sentences.sentences()) {
    const auto& truth = corpus.TruthOf(sentence.id);
    if (truth.kind != SentenceKind::kUnambiguous) continue;
    ASSERT_EQ(sentence.candidate_concepts.size(), 1u);
    for (InstanceId e : sentence.candidate_instances) {
      EXPECT_TRUE(world_.IsTrueMember(sentence.candidate_concepts[0], e));
    }
  }
}

TEST_F(GeneratorTest, AmbiguousHeadIsTrueConceptAndListIsTrue) {
  CorpusSpec spec;
  spec.num_sentences = 2000;
  Rng rng(35);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  for (const auto& sentence : corpus.sentences.sentences()) {
    const auto& truth = corpus.TruthOf(sentence.id);
    if (truth.kind != SentenceKind::kAmbiguous) continue;
    ASSERT_EQ(sentence.candidate_concepts.size(), 2u);
    EXPECT_EQ(sentence.candidate_concepts[0], truth.true_concept);
    for (InstanceId e : sentence.candidate_instances) {
      EXPECT_TRUE(world_.IsTrueMember(truth.true_concept, e));
    }
  }
}

TEST_F(GeneratorTest, MisparseCandidatesAreWrongConcept) {
  CorpusSpec spec;
  spec.num_sentences = 5000;
  spec.misparse_rate = 0.05;
  Rng rng(37);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  size_t misparses = 0;
  for (const auto& sentence : corpus.sentences.sentences()) {
    const auto& truth = corpus.TruthOf(sentence.id);
    if (truth.kind != SentenceKind::kMisparse) continue;
    ++misparses;
    ASSERT_EQ(sentence.candidate_concepts.size(), 1u);
    EXPECT_NE(sentence.candidate_concepts[0], truth.true_concept);
  }
  EXPECT_GT(misparses, 50u);
}

TEST_F(GeneratorTest, WrongFactSentencesContainExactlyOneFalseInstance) {
  CorpusSpec spec;
  spec.num_sentences = 5000;
  spec.wrongfact_rate = 0.05;
  Rng rng(39);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  size_t wrongfacts = 0;
  for (const auto& sentence : corpus.sentences.sentences()) {
    const auto& truth = corpus.TruthOf(sentence.id);
    if (truth.kind != SentenceKind::kWrongFact) continue;
    ++wrongfacts;
    int wrong = 0;
    for (InstanceId e : sentence.candidate_instances) {
      if (!world_.IsTrueMember(sentence.candidate_concepts[0], e)) ++wrong;
    }
    EXPECT_EQ(wrong, 1);
  }
  EXPECT_GT(wrongfacts, 50u);
}

TEST_F(GeneratorTest, PolysemeLinkedSentencesIncludeThePolyseme) {
  CorpusSpec spec;
  spec.num_sentences = 3000;
  Rng rng(41);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  size_t linked = 0;
  for (const auto& sentence : corpus.sentences.sentences()) {
    const auto& truth = corpus.TruthOf(sentence.id);
    if (truth.kind != SentenceKind::kAmbiguous || !truth.polyseme.valid()) continue;
    ++linked;
    EXPECT_NE(std::find(sentence.candidate_instances.begin(),
                        sentence.candidate_instances.end(), truth.polyseme),
              sentence.candidate_instances.end());
    // The adjacent concept is the polyseme's home.
    EXPECT_TRUE(world_.IsTrueMember(sentence.candidate_concepts[1], truth.polyseme));
  }
  EXPECT_GT(linked, 100u);
}

TEST_F(GeneratorTest, ListsContainNoDuplicates) {
  CorpusSpec spec;
  spec.num_sentences = 1500;
  Rng rng(43);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  for (const auto& sentence : corpus.sentences.sentences()) {
    std::unordered_set<uint32_t> seen;
    for (InstanceId e : sentence.candidate_instances) {
      EXPECT_TRUE(seen.insert(e.value).second);
    }
  }
}

TEST_F(GeneratorTest, RenderTextToggle) {
  CorpusSpec spec;
  spec.num_sentences = 200;
  spec.render_text = false;
  Rng rng(45);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  for (const auto& sentence : corpus.sentences.sentences()) {
    EXPECT_TRUE(sentence.text.empty());
  }
}

TEST(WorldSpecValidationTest, RejectsDegenerateSpecs) {
  WorldSpec ok;
  EXPECT_TRUE(ValidateWorldSpec(ok).ok());

  WorldSpec spec;
  spec.num_concepts = 0;
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());

  spec = WorldSpec();
  spec.min_instances = 5;
  spec.max_instances = 4;
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());

  spec = WorldSpec();
  spec.polysemy_rate = -0.1;
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());

  spec = WorldSpec();
  spec.polysemy_rate = std::nan("");
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());

  spec = WorldSpec();
  spec.morph_variant_rate = 1.5;
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());

  spec = WorldSpec();
  spec.max_confusables = spec.min_confusables - 1;
  EXPECT_FALSE(ValidateWorldSpec(spec).ok());
}

TEST(WorldSpecValidationTest, CheckedGeneratorReturnsStatusNotAssert) {
  WorldSpec spec;
  spec.num_concepts = 0;
  Rng rng(1);
  auto world = GenerateWorldChecked(spec, &rng);
  EXPECT_FALSE(world.ok());

  spec = WorldSpec();
  auto good = GenerateWorldChecked(spec, &rng);
  ASSERT_TRUE(good.ok());
  EXPECT_GT(good->num_concepts(), 0u);
}

TEST(WorldSpecValidationTest, MorphVariantRateZeroPreservesSeedStream) {
  // The morphology branch must consume no rng draws at rate 0, so legacy
  // seeds keep producing byte-identical worlds.
  WorldSpec spec;
  spec.num_concepts = 20;
  Rng rng_a(77);
  World a = GenerateWorld(spec, &rng_a);
  spec.morph_variant_rate = 0.0;
  Rng rng_b(77);
  World b = GenerateWorld(spec, &rng_b);
  ASSERT_EQ(a.num_instances(), b.num_instances());
  for (uint32_t i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(a.InstanceName(InstanceId(i)), b.InstanceName(InstanceId(i)));
  }
}

TEST(WorldSpecValidationTest, MorphVariantsProducePluralSurfaces) {
  WorldSpec spec;
  spec.num_concepts = 20;
  spec.morph_variant_rate = 0.6;
  Rng rng(77);
  World world = GenerateWorld(spec, &rng);
  size_t plural_pairs = 0;
  std::unordered_set<std::string> names;
  for (uint32_t i = 0; i < world.num_instances(); ++i) {
    names.insert(world.InstanceName(InstanceId(i)));
  }
  for (const std::string& name : names) {
    if (name.size() > 1 && names.count(name + "s") > 0) ++plural_pairs;
  }
  EXPECT_GT(plural_pairs, 0u);
}

TEST(CorpusSpecValidationTest, RejectsDegenerateSpecs) {
  CorpusSpec ok;
  EXPECT_TRUE(ValidateCorpusSpec(ok).ok());

  CorpusSpec spec;
  spec.num_sentences = -1;
  EXPECT_FALSE(ValidateCorpusSpec(spec).ok());

  spec = CorpusSpec();
  spec.misparse_rate = 2.0;
  EXPECT_FALSE(ValidateCorpusSpec(spec).ok());

  spec = CorpusSpec();
  spec.misparse_late_frac = -0.5;
  EXPECT_FALSE(ValidateCorpusSpec(spec).ok());

  spec = CorpusSpec();
  spec.min_list = 3;
  spec.max_list = 2;
  EXPECT_FALSE(ValidateCorpusSpec(spec).ok());
}

TEST_F(GeneratorTest, CheckedGeneratorMatchesUnchecked) {
  CorpusSpec spec;
  spec.num_sentences = 300;
  Rng rng_a(99);
  Corpus plain = GenerateCorpus(world_, spec, &rng_a);
  Rng rng_b(99);
  auto checked = GenerateCorpusChecked(world_, spec, &rng_b);
  ASSERT_TRUE(checked.ok());
  ASSERT_EQ(plain.sentences.size(), checked->sentences.size());

  spec.num_sentences = -5;
  Rng rng_c(99);
  EXPECT_FALSE(GenerateCorpusChecked(world_, spec, &rng_c).ok());
}

TEST_F(GeneratorTest, MisparseLateFracConcentratesFalsePairsLate) {
  CorpusSpec spec;
  spec.num_sentences = 4000;
  spec.misparse_rate = 0.2;
  spec.misparse_late_frac = 1.0;
  Rng rng(52);
  Corpus corpus = GenerateCorpus(world_, spec, &rng);
  // With late_frac 1.0 every misparsed sentence carries two wrong
  // candidates instead of one.
  size_t double_wrong = 0, single_wrong = 0;
  for (size_t i = 0; i < corpus.sentences.size(); ++i) {
    const auto& truth = corpus.truths[i];
    if (truth.kind != SentenceKind::kMisparse) continue;
    const auto& sentence = corpus.sentences.sentences()[i];
    if (sentence.candidate_concepts.size() >= 2) {
      ++double_wrong;
    } else {
      ++single_wrong;
    }
  }
  EXPECT_GT(double_wrong, 0u);
  EXPECT_EQ(single_wrong, 0u);

  // And at 0.0 the legacy single-wrong shape is preserved.
  spec.misparse_late_frac = 0.0;
  Rng rng2(52);
  Corpus legacy = GenerateCorpus(world_, spec, &rng2);
  for (size_t i = 0; i < legacy.sentences.size(); ++i) {
    if (legacy.truths[i].kind != SentenceKind::kMisparse) continue;
    EXPECT_EQ(legacy.sentences.sentences()[i].candidate_concepts.size(), 1u);
  }
}

}  // namespace
}  // namespace semdrift
