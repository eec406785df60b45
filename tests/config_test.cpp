// Tests for the XML parser and the ADIOS-style runtime configuration loader.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "adios/bp.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "mesh/generators.hpp"
#include "util/xml.hpp"

namespace cu = canopus::util;
namespace cc = canopus::core;
namespace cs = canopus::storage;

// -------------------------------------------------------------------- XML --

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = cu::parse_xml(
      "<?xml version='1.0'?>\n"
      "<!-- a comment -->\n"
      "<config mode=\"fast\">\n"
      "  <tier name='tmpfs' capacity=\"4MiB\"/>\n"
      "  <note>hello &amp; goodbye</note>\n"
      "</config>");
  EXPECT_EQ(root->name, "config");
  EXPECT_EQ(root->attr("mode"), "fast");
  const auto* tier = root->child("tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->attr("name"), "tmpfs");
  EXPECT_EQ(tier->attr("capacity"), "4MiB");
  const auto* note = root->child("note");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->text, "hello & goodbye");
  EXPECT_EQ(root->child("missing"), nullptr);
  EXPECT_EQ(root->attr("missing", "dflt"), "dflt");
}

TEST(Xml, NestedAndRepeatedElements) {
  const auto root = cu::parse_xml(
      "<a><b i='1'><c/></b><b i='2'/><d/></a>");
  const auto bs = root->children_named("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0]->attr("i"), "1");
  EXPECT_EQ(bs[1]->attr("i"), "2");
  EXPECT_NE(bs[0]->child("c"), nullptr);
}

TEST(Xml, EntitiesDecoded) {
  const auto root = cu::parse_xml("<x v='&lt;&gt;&quot;&apos;&amp;'/>");
  EXPECT_EQ(root->attr("v"), "<>\"'&");
}

TEST(Xml, MalformedInputsThrow) {
  EXPECT_THROW(cu::parse_xml(""), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a></b>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a x=unquoted/>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a/><b/>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a>&unknown;</a>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a><!-- unterminated </a>"), canopus::Error);
}

// ------------------------------------------------------------------ units --

TEST(Units, Sizes) {
  EXPECT_EQ(cc::parse_size("0"), 0u);
  EXPECT_EQ(cc::parse_size("512B"), 512u);
  EXPECT_EQ(cc::parse_size("4KiB"), 4096u);
  EXPECT_EQ(cc::parse_size("2MiB"), 2u << 20);
  EXPECT_EQ(cc::parse_size("1GiB"), 1u << 30);
  EXPECT_EQ(cc::parse_size("3KB"), 3000u);
  EXPECT_EQ(cc::parse_size("1.5KiB"), 1536u);
  EXPECT_THROW(cc::parse_size("10parsecs"), canopus::Error);
  EXPECT_THROW(cc::parse_size("lots"), canopus::Error);
}

TEST(Units, RatesAndDurations) {
  EXPECT_DOUBLE_EQ(cc::parse_rate("250MB/s"), 250e6);
  EXPECT_DOUBLE_EQ(cc::parse_rate("8GiB/s"), 8.0 * (1 << 30));
  EXPECT_THROW(cc::parse_rate("250MB"), canopus::Error);
  EXPECT_THROW(cc::parse_rate("0MB/s"), canopus::Error);
  EXPECT_DOUBLE_EQ(cc::parse_duration("5ms"), 5e-3);
  EXPECT_DOUBLE_EQ(cc::parse_duration("2us"), 2e-6);
  EXPECT_DOUBLE_EQ(cc::parse_duration("1.5s"), 1.5);
  EXPECT_THROW(cc::parse_duration("5min"), canopus::Error);
}

// ----------------------------------------------------------------- config --

namespace {
const char* kSample = R"(<canopus-config>
  <storage policy="fastest-fit">
    <tier preset="tmpfs" capacity="4MiB"/>
    <tier preset="lustre" capacity="1GiB" read-bw="100MB/s" read-latency="8ms"/>
  </storage>
  <refactor levels="4" step="2" codec="sz" error-bound="1e-5"
            estimate="barycentric" priority="gradient" tiered-placement="false"/>
</canopus-config>)";
}

TEST(Config, LoadsTiersAndRefactor) {
  const auto config = cc::load_config(kSample);
  ASSERT_EQ(config.tiers.size(), 2u);
  EXPECT_EQ(config.tiers[0].name, "tmpfs");
  EXPECT_EQ(config.tiers[0].capacity_bytes, 4u << 20);
  EXPECT_EQ(config.tiers[1].name, "lustre");
  // Explicit attributes override the preset envelope...
  EXPECT_DOUBLE_EQ(config.tiers[1].read_bandwidth, 100e6);
  EXPECT_DOUBLE_EQ(config.tiers[1].read_latency, 8e-3);
  // ...while untouched preset fields survive.
  EXPECT_DOUBLE_EQ(config.tiers[1].write_bandwidth,
                   cs::lustre_spec(1).write_bandwidth);

  EXPECT_EQ(config.refactor.levels, 4u);
  EXPECT_EQ(config.refactor.codec, "sz");
  EXPECT_DOUBLE_EQ(config.refactor.error_bound, 1e-5);
  EXPECT_EQ(config.refactor.estimate, cc::EstimateMode::kBarycentric);
  EXPECT_EQ(config.refactor.decimate.priority,
            canopus::mesh::EdgePriority::kGradientWeighted);
  EXPECT_FALSE(config.refactor.tiered_placement);

  auto hierarchy = config.make_hierarchy();
  EXPECT_EQ(hierarchy.tier_count(), 2u);
}

TEST(Config, ParsesParallelKnobs) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <threads> 4 </threads>
    <pipeline overlap="false" read-ahead="false"/>
  </canopus-config>)");
  const auto parallel = config.options().parallel;
  EXPECT_EQ(parallel.threads, 4u);
  EXPECT_FALSE(parallel.pipeline);
  EXPECT_FALSE(parallel.read_ahead);
}

TEST(Config, ParallelKnobsDefaultToConcurrent) {
  const auto config = cc::load_config(kSample);
  const auto parallel = config.options().parallel;
  EXPECT_EQ(parallel.threads, 0u);  // 0 = global pool
  EXPECT_TRUE(parallel.pipeline);
  EXPECT_TRUE(parallel.read_ahead);
}

namespace {

/// Every stored object of `var` in the container at `path`, read back raw.
std::map<std::string, cu::Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                                const std::string& path,
                                                const std::string& var) {
  canopus::adios::BpReader reader(tiers, path);
  std::map<std::string, cu::Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    cu::Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

}  // namespace

// <threads> and <pipeline> configure the pipeline Pipeline::load builds:
// its writes are byte-identical to a pipeline given the same
// Options::parallel directly.
TEST(Config, XmlParallelKnobsWriteLikeOptionsParallel) {
  const std::string storage = R"(<storage>
      <tier preset="tmpfs" capacity="1MiB"/>
      <tier preset="lustre" capacity="64MiB"/>
    </storage>)";
  namespace fs = std::filesystem;
  const auto path =
      (fs::temp_directory_path() / "canopus_config_parallel.xml").string();
  {
    std::ofstream f(path);
    f << "<canopus-config>" << storage
      << "<threads>2</threads><pipeline overlap=\"false\"/></canopus-config>";
  }
  std::unique_ptr<canopus::Pipeline> loaded;
  const canopus::Status st = canopus::Pipeline::load(path, &loaded);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(loaded->options().parallel.threads, 2u);
  EXPECT_FALSE(loaded->options().parallel.pipeline);

  canopus::Options options;
  options.parallel.threads = 2;
  options.parallel.pipeline = false;
  canopus::Pipeline direct(
      cc::load_config("<canopus-config>" + storage + "</canopus-config>")
          .make_hierarchy(),
      options);

  const auto mesh = canopus::mesh::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 7);
  canopus::mesh::Field values(mesh.vertex_count());
  for (std::size_t v = 0; v < values.size(); ++v) {
    const auto p = mesh.vertex(v);
    values[v] = std::sin(4.0 * p.x) * std::cos(3.0 * p.y);
  }
  canopus::WriteRequest request;
  request.path = "x.bp";
  request.var = "v";
  request.mesh = &mesh;
  request.values = &values;
  request.config.levels = 3;
  request.config.error_bound = 1e-6;
  request.config.delta_chunks = 4;
  ASSERT_TRUE(loaded->write(request).ok());
  ASSERT_TRUE(direct.write(request).ok());

  const auto a = stored_objects(loaded->hierarchy(), "x.bp", "v");
  const auto b = stored_objects(direct.hierarchy(), "x.bp", "v");
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a, b);
}

TEST(Config, ParsesCacheBlock) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="8MiB" shards="2" verify-hits="true"/>
  </canopus-config>)");
  ASSERT_TRUE(config.cache.has_value());
  EXPECT_EQ(config.cache->budget_bytes, 8u << 20);
  EXPECT_EQ(config.cache->shards, 2u);
  EXPECT_TRUE(config.cache->verify_hits);
  auto hierarchy = config.make_hierarchy();
  ASSERT_NE(hierarchy.block_cache(), nullptr);
  EXPECT_EQ(hierarchy.block_cache()->budget_bytes(), 8u << 20);
}

TEST(Config, CacheDefaultsOffAndAcceptsBudgetMb) {
  // No <cache> element: uncached hierarchy, optional stays empty.
  EXPECT_FALSE(cc::load_config(kSample).cache.has_value());
  EXPECT_EQ(cc::load_config(kSample).make_hierarchy().block_cache(), nullptr);
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget-mb="16"/>
  </canopus-config>)");
  ASSERT_TRUE(config.cache.has_value());
  EXPECT_EQ(config.cache->budget_bytes, 16u << 20);
  EXPECT_FALSE(config.cache->verify_hits);
}

TEST(Config, InvalidCacheBlockThrows) {
  // Zero shards.
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="1MiB" shards="0"/>
  </canopus-config>)"),
               canopus::Error);
  // Explicit zero budget.
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="0"/>
  </canopus-config>)"),
               canopus::Error);
  // Bare <cache/> keeps the CacheConfig defaults (64 MiB) rather than throw.
  const auto bare = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache/>
  </canopus-config>)");
  ASSERT_TRUE(bare.cache.has_value());
  EXPECT_EQ(bare.cache->budget_bytes,
            canopus::cache::CacheConfig{}.budget_bytes);
}

TEST(Config, EmptyThreadsElementThrows) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <threads></threads>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, CustomTierWithoutPreset) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage>
      <tier name="archive" capacity="8GiB" read-bw="40MB/s" write-bw="40MB/s"
            read-latency="50ms" write-latency="50ms"/>
    </storage>
  </canopus-config>)");
  ASSERT_EQ(config.tiers.size(), 1u);
  EXPECT_EQ(config.tiers[0].name, "archive");
  EXPECT_DOUBLE_EQ(config.tiers[0].read_bandwidth, 40e6);
  // Refactor section absent: defaults apply.
  EXPECT_EQ(config.refactor.levels, 3u);
  EXPECT_EQ(config.refactor.codec, "zfp");
}

TEST(Config, FileBackendRequiresRoot) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier name="x" capacity="1MiB" backend="file"/></storage>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, InvalidInputsThrow) {
  EXPECT_THROW(cc::load_config("<wrong-root/>"), canopus::Error);
  EXPECT_THROW(cc::load_config("<canopus-config/>"), canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="floppy" capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage policy="best-effort"><tier preset="tmpfs" capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, LoadFromFile) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "canopus_config_test.xml").string();
  {
    std::ofstream f(path);
    f << kSample;
  }
  const auto config = cc::load_config_file(path);
  EXPECT_EQ(config.tiers.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(cc::load_config_file("/does/not/exist.xml"), canopus::Error);
}

// -------------------------------------------------- numeric error context --

namespace {
/// The message load_config throws for `xml`, "" when it does not throw.
std::string config_error(const std::string& xml) {
  try {
    cc::load_config(xml);
  } catch (const canopus::Error& e) {
    return e.what();
  }
  return {};
}

std::string wrap(const std::string& body) {
  return "<canopus-config>\n"
         "  <storage><tier preset=\"tmpfs\" capacity=\"4MiB\"/></storage>\n" +
         body + "\n</canopus-config>";
}
}  // namespace

TEST(Config, MalformedNumericsNameTheirLocation) {
  // Regression: these used to surface as bare std::invalid_argument /
  // std::out_of_range from std::stoul with no hint of which attribute was
  // wrong. Each diagnostic must name the element/attribute and the offense.
  const std::string not_int = config_error(wrap("<refactor levels=\"abc\"/>"));
  EXPECT_NE(not_int.find("levels"), std::string::npos) << not_int;
  EXPECT_NE(not_int.find("not an integer"), std::string::npos) << not_int;

  const std::string junk = config_error(wrap("<refactor levels=\"3abc\"/>"));
  EXPECT_NE(junk.find("levels"), std::string::npos) << junk;
  EXPECT_NE(junk.find("not an integer"), std::string::npos) << junk;

  const std::string negative = config_error(wrap("<faults seed=\"-7\"/>"));
  EXPECT_NE(negative.find("seed"), std::string::npos) << negative;
  EXPECT_NE(negative.find("non-negative"), std::string::npos) << negative;

  const std::string overflow =
      config_error(wrap("<faults seed=\"99999999999999999999999999\"/>"));
  EXPECT_NE(overflow.find("seed"), std::string::npos) << overflow;
  EXPECT_NE(overflow.find("overflow"), std::string::npos) << overflow;

  const std::string bad_double =
      config_error(wrap("<retry multiplier=\"fast\"/>"));
  EXPECT_NE(bad_double.find("multiplier"), std::string::npos) << bad_double;

  const std::string bad_threads = config_error(wrap("<threads>4x</threads>"));
  EXPECT_NE(bad_threads.find("threads"), std::string::npos) << bad_threads;

  const std::string attempts_overflow =
      config_error(wrap("<retry max-attempts=\"4294967296\"/>"));
  EXPECT_NE(attempts_overflow.find("max-attempts"), std::string::npos)
      << attempts_overflow;

  const std::string bad_buckets =
      config_error(wrap("<observability histogram-buckets=\"many\"/>"));
  EXPECT_NE(bad_buckets.find("histogram-buckets"), std::string::npos)
      << bad_buckets;

  const std::string neg_bound =
      config_error(wrap("<refactor error-bound=\"-1e-4\"/>"));
  EXPECT_NE(neg_bound.find("error-bound"), std::string::npos) << neg_bound;
}

// ------------------------------------------------------------------ serve --

TEST(Config, ParsesServeBlock) {
  const auto config = cc::load_config(wrap(
      "<serve workers=\"4\" queue-limit=\"64\" deadline-default=\"250ms\""
      " age-boost=\"2.5\"/>"));
  ASSERT_TRUE(config.serve.has_value());
  EXPECT_EQ(config.serve->workers, 4u);
  EXPECT_EQ(config.serve->queue_limit, 64u);
  EXPECT_DOUBLE_EQ(config.serve->default_deadline_seconds, 0.25);
  EXPECT_DOUBLE_EQ(config.serve->age_boost, 2.5);
}

TEST(Config, ServeDefaultsAndValidation) {
  // No <serve> element: the optional stays empty (scheduler defaults apply
  // lazily at first use).
  EXPECT_FALSE(cc::load_config(kSample).serve.has_value());
  // Bare <serve/> opts in with the ServeConfig defaults.
  const auto bare = cc::load_config(wrap("<serve/>"));
  ASSERT_TRUE(bare.serve.has_value());
  EXPECT_EQ(bare.serve->workers, canopus::serve::ServeConfig{}.workers);

  EXPECT_THROW(cc::load_config(wrap("<serve workers=\"0\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve queue-limit=\"0\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve deadline-default=\"0ms\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve age-boost=\"-1\"/>")),
               canopus::Error);
  const std::string bad_workers =
      config_error(wrap("<serve workers=\"two\"/>"));
  EXPECT_NE(bad_workers.find("workers"), std::string::npos) << bad_workers;
}

// ----------------------------------------------------------------- fabric --

TEST(Config, ParsesFabricBlock) {
  const auto config = cc::load_config(wrap(
      "<fabric nodes=\"4\" partition=\"hash\" remote-us=\"250\""
      " remote-bw=\"2GB/s\" eviction-high=\"0.9\" eviction-low=\"0.7\""
      " eviction-interval=\"20ms\"/>"));
  ASSERT_TRUE(config.fabric.has_value());
  EXPECT_EQ(config.fabric->nodes, 4u);
  EXPECT_EQ(config.fabric->partition, canopus::fabric::Partition::kHash);
  EXPECT_DOUBLE_EQ(config.fabric->remote_latency_seconds, 250e-6);
  EXPECT_DOUBLE_EQ(config.fabric->remote_bandwidth, 2e9);
  EXPECT_DOUBLE_EQ(config.fabric->eviction_high, 0.9);
  EXPECT_DOUBLE_EQ(config.fabric->eviction_low, 0.7);
  EXPECT_DOUBLE_EQ(config.fabric->eviction_interval_seconds, 0.02);
}

TEST(Config, FabricDefaultsAndValidation) {
  // No <fabric> element: single-node serving, the optional stays empty.
  EXPECT_FALSE(cc::load_config(kSample).fabric.has_value());
  // Bare <fabric/> opts in with the defaults (range partition, 1 node).
  const auto bare = cc::load_config(wrap("<fabric/>"));
  ASSERT_TRUE(bare.fabric.has_value());
  EXPECT_EQ(bare.fabric->nodes, 1u);
  EXPECT_EQ(bare.fabric->partition, canopus::fabric::Partition::kMortonRange);
  // "range" and "morton-range" are synonyms.
  EXPECT_EQ(cc::load_config(wrap("<fabric partition=\"range\"/>"))
                .fabric->partition,
            canopus::fabric::Partition::kMortonRange);
  EXPECT_EQ(cc::load_config(wrap("<fabric partition=\"morton-range\"/>"))
                .fabric->partition,
            canopus::fabric::Partition::kMortonRange);

  EXPECT_THROW(cc::load_config(wrap("<fabric nodes=\"0\"/>")), canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric partition=\"round-robin\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric remote-us=\"-5\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric remote-bw=\"0MB/s\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric eviction-high=\"1.5\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(
                   wrap("<fabric eviction-high=\"0.5\" eviction-low=\"0.8\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric eviction-interval=\"0ms\"/>")),
               canopus::Error);
  const std::string bad_nodes = config_error(wrap("<fabric nodes=\"many\"/>"));
  EXPECT_NE(bad_nodes.find("nodes"), std::string::npos) << bad_nodes;
}

// --------------------------------------------------------------------- io --

TEST(Config, ParsesIoBlock) {
  const auto config = cc::load_config(
      wrap("<io depth=\"8\" batch=\"4\" deadline=\"5ms\"/>"));
  ASSERT_TRUE(config.io.has_value());
  EXPECT_EQ(config.io->depth, 8u);
  EXPECT_EQ(config.io->batch, 4u);
  EXPECT_DOUBLE_EQ(config.io->deadline_seconds, 5e-3);
}

TEST(Config, IoDefaultsAndValidation) {
  // No <io> element: the optional stays empty and readers stay blocking.
  EXPECT_FALSE(cc::load_config(kSample).io.has_value());
  // Bare <io/> opts in with the defaults — depth 1, the blocking path.
  const auto bare = cc::load_config(wrap("<io/>"));
  ASSERT_TRUE(bare.io.has_value());
  EXPECT_EQ(bare.io->depth, 1u);
  EXPECT_DOUBLE_EQ(bare.io->deadline_seconds, 0.0);

  EXPECT_THROW(cc::load_config(wrap("<io depth=\"0\"/>")), canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<io batch=\"0\"/>")), canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<io deadline=\"-5ms\"/>")),
               canopus::Error);
  const std::string bad_depth = config_error(wrap("<io depth=\"eight\"/>"));
  EXPECT_NE(bad_depth.find("depth"), std::string::npos) << bad_depth;
}
