#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/archive.h"
#include "core/turbulence_setup.h"
#include "ops/archive.h"
#include "ops/engine.h"
#include "ops/native.h"
#include "tbf_reference.h"
#include "turbulence/tbf.h"

namespace easia::ops {
namespace {

// ---- Archive container ----

TEST(ArchiveContainerTest, PackUnpackRoundTrip) {
  std::map<std::string, std::string> files = {
      {"main.ea", "print(1);"},
      {"README", "docs"},
      {"data.bin", std::string("\x00\x01\x02", 3)},
  };
  auto back = UnpackArchive(PackArchive(files));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, files);
}

TEST(ArchiveContainerTest, EmptyArchive) {
  auto back = UnpackArchive(PackArchive({}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(ArchiveContainerTest, DetectsCorruption) {
  std::string packed = PackArchive({{"f", "contents"}});
  EXPECT_FALSE(UnpackArchive("garbage").ok());
  std::string flipped = packed;
  flipped[10] ^= 1;
  EXPECT_FALSE(UnpackArchive(flipped).ok());
  EXPECT_FALSE(UnpackArchive(packed.substr(0, packed.size() - 2)).ok());
}

TEST(ArchiveContainerTest, Formats) {
  EXPECT_TRUE(IsPackedFormat("jar"));
  EXPECT_TRUE(IsPackedFormat("tar.Z"));
  EXPECT_FALSE(IsPackedFormat("ea"));
}

// ---- Native operations ----

class NativeOpsTest : public ::testing::Test {
 protected:
  NativeOpsTest() : registry_(NativeRegistry::BuiltIns()) {
    turb::Field field = turb::Field::Generate(8, 0.0, 0.01);
    bytes_ = turb::SerializeTbf(field, 0);
  }

  NativeRegistry registry_;
  std::string bytes_;
};

TEST_F(NativeOpsTest, RegistryContents) {
  EXPECT_TRUE(registry_.Has("GetImage"));
  EXPECT_TRUE(registry_.Has("FieldStats"));
  EXPECT_TRUE(registry_.Has("SliceCsv"));
  EXPECT_TRUE(registry_.Has("Subsample"));
  EXPECT_TRUE(registry_.Has("KineticEnergy"));
  EXPECT_FALSE(registry_.Get("Nope").ok());
}

TEST_F(NativeOpsTest, GetImageProducesPgm) {
  const NativeOperation* op = *registry_.Get("GetImage");
  auto out = op->run(bytes_, {{"slice", "x2"}, {"type", "v"}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->files.size(), 1u);
  EXPECT_EQ(out->files[0].first, "slice_x2_v.pgm");
  EXPECT_EQ(out->files[0].second.substr(0, 2), "P5");
  EXPECT_NE(out->text.find("GetImage"), std::string::npos);
}

TEST_F(NativeOpsTest, GetImageSeparateIndexParam) {
  const NativeOperation* op = *registry_.Get("GetImage");
  auto out = op->run(bytes_, {{"slice", "y"}, {"index", "3"}, {"type", "p"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->files[0].first, "slice_y3_p.pgm");
}

TEST_F(NativeOpsTest, GetImageRejectsBadParams) {
  const NativeOperation* op = *registry_.Get("GetImage");
  EXPECT_FALSE(op->run(bytes_, {{"slice", "q1"}}).ok());
  EXPECT_FALSE(op->run(bytes_, {{"slice", "x99"}}).ok());
  EXPECT_FALSE(op->run(bytes_, {{"type", "zz"}}).ok());
  EXPECT_FALSE(op->run("not a tbf", {}).ok());
}

TEST_F(NativeOpsTest, FieldStatsCoversAllComponents) {
  const NativeOperation* op = *registry_.Get("FieldStats");
  auto out = op->run(bytes_, {});
  ASSERT_TRUE(out.ok());
  for (const char* comp : {"u:", "v:", "w:", "p:"}) {
    EXPECT_NE(out->text.find(comp), std::string::npos);
  }
}

TEST_F(NativeOpsTest, SubsampleShrinksGrid) {
  const NativeOperation* op = *registry_.Get("Subsample");
  auto out = op->run(bytes_, {{"factor", "2"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->files.size(), 1u);
  auto small = turb::ParseTbf(out->files[0].second);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->n(), 4u);
  EXPECT_FALSE(op->run(bytes_, {{"factor", "0"}}).ok());
  EXPECT_FALSE(op->run(bytes_, {{"factor", "99"}}).ok());
}

TEST_F(NativeOpsTest, ReductionModelsMatchRealOutputs) {
  // For every native op, the sparse-path size model should be close to the
  // size actually produced on a materialised dataset.
  for (const std::string& name : registry_.Names()) {
    const NativeOperation* op = *registry_.Get(name);
    auto out = op->run(bytes_, {});
    ASSERT_TRUE(out.ok()) << name;
    uint64_t real = out->TotalFileBytes();
    uint64_t modelled = op->reduction_model(bytes_.size());
    EXPECT_LT(real, modelled * 4 + 512) << name;
    EXPECT_GE(real * 4 + 512, modelled) << name;
  }
}

// SliceCsv's reference rendering: one printf "%.9g" per value.
std::string PrintfCsv(const turb::Slice2D& slice) {
  std::string csv;
  for (size_t i = 0; i < slice.n1; ++i) {
    for (size_t j = 0; j < slice.n2; ++j) {
      if (j > 0) csv += ',';
      csv += StrPrintf("%.9g", slice.At(i, j));
    }
    csv += '\n';
  }
  return csv;
}

TEST_F(NativeOpsTest, SliceCsvMatchesPrintf) {
  const NativeOperation* op = *registry_.Get("SliceCsv");
  // The special-values field puts ±0, NaNs, ±inf and denormals on the
  // x=0 plane of u; the rest of it is random bit patterns.
  for (const turb::Field& field :
       {turb::Field::Generate(8, 0.0, 0.01), turb::SpecialValuesField(4)}) {
    std::string bytes = turb::SerializeTbf(field, 0);
    for (char axis : {'x', 'y', 'z'}) {
      for (turb::Component c : turb::kComponents) {
        for (size_t index : {size_t{0}, field.n() - 1}) {
          std::string where = std::string(1, axis) + std::to_string(index);
          std::string type(turb::ComponentName(c));
          auto out = op->run(bytes, {{"slice", where}, {"type", type}});
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          turb::Slice2D slice = *field.Slice(axis, index, c);
          EXPECT_EQ(out->files[0].second, PrintfCsv(slice))
              << "n=" << field.n() << " " << where << " " << type;
        }
      }
    }
  }
}

TEST_F(NativeOpsTest, SubsampleMatchesReferenceEncoding) {
  const NativeOperation* op = *registry_.Get("Subsample");
  turb::Field field = turb::SpecialValuesField(6);
  std::string bytes = turb::SerializeTbf(field, 4);
  for (size_t factor : {1, 2, 3, 4}) {
    size_t m = field.n() / factor;
    turb::Field small = turb::Field::Zero(m, field.time(), field.nu());
    for (turb::Component c : turb::kComponents) {
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j) {
          for (size_t k = 0; k < m; ++k) {
            small.Set(c, i, j, k,
                      field.At(c, i * factor, j * factor, k * factor));
          }
        }
      }
    }
    auto out = op->run(bytes, {{"factor", std::to_string(factor)}});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->files[0].second, turb::ReferenceSerializeTbf(small, 0))
        << "factor " << factor;
  }
}

TEST(GridFromFileBytesTest, InvertsFileBytes) {
  for (size_t n : {8u, 16u, 64u, 128u, 256u}) {
    EXPECT_EQ(GridFromFileBytes(turb::Field::FileBytes(n)), n);
  }
  EXPECT_EQ(GridFromFileBytes(10), 0u);
}

// ---- OperationEngine end to end ----

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = std::make_unique<core::Archive>();
    archive_->AddFileServer("fs1", /*constant_mbps=*/8.0);
    archive_->AddFileServer("fs2", /*constant_mbps=*/8.0);
    ASSERT_TRUE(core::CreateTurbulenceSchema(archive_.get()).ok());
    core::SeedOptions seed;
    seed.hosts = {"fs1", "fs2"};
    seed.simulations = 1;
    seed.timesteps_per_simulation = 2;
    seed.grid_n = 8;
    auto seeded = core::SeedTurbulenceData(archive_.get(), seed);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    seeded_ = *seeded;
    ASSERT_TRUE(archive_->InitializeXuis().ok());
    ASSERT_TRUE(core::AttachGetImageOperation(
        archive_.get(), seeded_[0].simulation_key, 8).ok());
    ASSERT_TRUE(core::AttachNativeOperations(archive_.get()).ok());
    auto spec = archive_->xuis().Default();
    get_image_ = FindOp("GetImage");
    field_stats_ = FindOp("FieldStats");
  }

  xuis::OperationSpec FindOp(const std::string& name) {
    const xuis::XuisColumn* col = archive_->xuis().Default().FindColumnById(
        "RESULT_FILE.DOWNLOAD_RESULT");
    for (const xuis::OperationSpec& op : col->operations) {
      if (op.name == name) return op;
    }
    ADD_FAILURE() << "operation not found: " << name;
    return {};
  }

  InvocationContext AuthorisedCtx() {
    InvocationContext ctx;
    ctx.user = "alice";
    ctx.is_guest = false;
    return ctx;
  }

  Result<OperationResult> RunUpload(const std::string& code,
                                    const std::string& dataset_url) {
    xuis::UploadSpec upload;
    upload.type = "EASCRIPT";
    upload.format = "ea";
    return archive_->engine().RunUploadedCode(upload, code, "main.ea",
                                              dataset_url, {},
                                              AuthorisedCtx());
  }

  std::unique_ptr<core::Archive> archive_;
  std::vector<core::SeededSimulation> seeded_;
  xuis::OperationSpec get_image_;
  xuis::OperationSpec field_stats_;
};

TEST_F(EngineTest, EascriptOperationEndToEnd) {
  auto result = archive_->engine().Invoke(
      get_image_, seeded_[0].dataset_urls[0],
      {{"slice", "x2"}, {"type", "u"}}, AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.files.size(), 1u);
  EXPECT_EQ(result->output.files[0].first, "slice.pgm");
  EXPECT_EQ(result->output.files[0].second.substr(0, 2), "P5");
  EXPECT_GT(result->script_steps, 0u);
  // Output staged on the dataset's host, downloadable by URL.
  ASSERT_EQ(result->output_urls.size(), 1u);
  auto resolved = archive_->fleet().Resolve(result->output_urls[0]);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->first->vfs().Exists(resolved->second.path));
  // Data reduction: output is far smaller than the dataset.
  EXPECT_LT(result->output_bytes * 10, result->input_bytes);
}

TEST_F(EngineTest, OperationRunsOnDatasetHost) {
  for (const std::string& url : seeded_[0].dataset_urls) {
    auto result = archive_->engine().Invoke(get_image_, url, {},
                                            AuthorisedCtx());
    ASSERT_TRUE(result.ok());
    auto parsed = fs::ParseFileUrl(url);
    EXPECT_EQ(result->host, parsed->host);
  }
}

TEST_F(EngineTest, NativeOperation) {
  auto result = archive_->engine().Invoke(
      field_stats_, seeded_[0].dataset_urls[0], {}, AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->output.text.find("u:"), std::string::npos);
  EXPECT_GT(result->exec_seconds, 0.0);
}

TEST_F(EngineTest, GuestBlockedFromNonGuestOps) {
  xuis::OperationSpec subsample = FindOp("Subsample");
  EXPECT_FALSE(subsample.guest_access);
  InvocationContext guest;
  guest.is_guest = true;
  Status s = archive_->engine()
                 .Invoke(subsample, seeded_[0].dataset_urls[0], {}, guest)
                 .status();
  EXPECT_TRUE(s.IsPermissionDenied());
  // Guest-accessible ops work.
  EXPECT_TRUE(archive_->engine()
                  .Invoke(get_image_, seeded_[0].dataset_urls[0], {}, guest)
                  .ok());
}

TEST_F(EngineTest, CachingAvoidsRecomputation) {
  archive_->engine().set_caching(true);
  auto first = archive_->engine().Invoke(
      get_image_, seeded_[0].dataset_urls[0], {{"slice", "x1"}},
      AuthorisedCtx());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = archive_->engine().Invoke(
      get_image_, seeded_[0].dataset_urls[0], {{"slice", "x1"}},
      AuthorisedCtx());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // Different parameters miss.
  auto third = archive_->engine().Invoke(
      get_image_, seeded_[0].dataset_urls[0], {{"slice", "x2"}},
      AuthorisedCtx());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
  const OperationStats stats = archive_->engine().stats().at("GetImage");
  EXPECT_EQ(stats.invocations, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(EngineTest, CacheKeyIgnoresAccessToken) {
  archive_->engine().set_caching(true);
  std::string raw = seeded_[0].dataset_urls[0];
  auto first = archive_->engine().Invoke(get_image_, raw, {},
                                         AuthorisedCtx());
  ASSERT_TRUE(first.ok());
  auto tokenised = fs::WithToken(raw, "SOMETOKEN123");
  ASSERT_TRUE(tokenised.ok());
  auto second = archive_->engine().Invoke(get_image_, *tokenised, {},
                                          AuthorisedCtx());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
}

TEST_F(EngineTest, LruEvictsOldestWhenOverCapacity) {
  archive_->engine().set_caching(true);
  archive_->engine().set_cache_capacity(2);
  const std::string& url = seeded_[0].dataset_urls[0];
  for (const char* slice : {"x1", "x2", "x3"}) {
    ASSERT_TRUE(archive_->engine()
                    .Invoke(get_image_, url, {{"slice", slice}},
                            AuthorisedCtx())
                    .ok());
  }
  EXPECT_EQ(archive_->engine().cache_size(), 2u);
  EXPECT_EQ(archive_->engine().cache_evictions(), 1u);
  EXPECT_EQ(archive_->engine().stats().at("GetImage").cache_evictions, 1u);
  // The oldest entry (x1) was evicted; the newest (x3) survives.
  auto x1 = archive_->engine().Invoke(get_image_, url, {{"slice", "x1"}},
                                      AuthorisedCtx());
  ASSERT_TRUE(x1.ok());
  EXPECT_FALSE(x1->cache_hit);
  auto x3 = archive_->engine().Invoke(get_image_, url, {{"slice", "x3"}},
                                      AuthorisedCtx());
  ASSERT_TRUE(x3.ok());
  EXPECT_TRUE(x3->cache_hit);
}

TEST_F(EngineTest, LruHitPromotesEntry) {
  archive_->engine().set_caching(true);
  archive_->engine().set_cache_capacity(2);
  const std::string& url = seeded_[0].dataset_urls[0];
  auto invoke = [&](const char* slice) {
    auto r = archive_->engine().Invoke(get_image_, url, {{"slice", slice}},
                                       AuthorisedCtx());
    EXPECT_TRUE(r.ok());
    return r->cache_hit;
  };
  invoke("x1");
  invoke("x2");
  EXPECT_TRUE(invoke("x1"));   // promote x1 to most-recent
  invoke("x3");                // evicts x2, not x1
  EXPECT_TRUE(invoke("x1"));
  EXPECT_FALSE(invoke("x2"));
}

TEST_F(EngineTest, ShrinkingCapacityEvictsDownKeepingNewest) {
  archive_->engine().set_caching(true);
  const std::string& url = seeded_[0].dataset_urls[0];
  for (const char* slice : {"x1", "x2", "x3"}) {
    ASSERT_TRUE(archive_->engine()
                    .Invoke(get_image_, url, {{"slice", slice}},
                            AuthorisedCtx())
                    .ok());
  }
  EXPECT_EQ(archive_->engine().cache_size(), 3u);
  archive_->engine().set_cache_capacity(1);
  EXPECT_EQ(archive_->engine().cache_size(), 1u);
  EXPECT_EQ(archive_->engine().cache_evictions(), 2u);
  auto x3 = archive_->engine().Invoke(get_image_, url, {{"slice", "x3"}},
                                      AuthorisedCtx());
  ASSERT_TRUE(x3.ok());
  EXPECT_TRUE(x3->cache_hit);
}

TEST_F(EngineTest, ZeroCapacityDisablesCaching) {
  archive_->engine().set_caching(true);
  archive_->engine().set_cache_capacity(0);
  const std::string& url = seeded_[0].dataset_urls[0];
  for (int i = 0; i < 2; ++i) {
    auto r = archive_->engine().Invoke(get_image_, url, {{"slice", "x1"}},
                                       AuthorisedCtx());
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->cache_hit);
  }
  EXPECT_EQ(archive_->engine().cache_size(), 0u);
}

TEST_F(EngineTest, StatsTrackFailures) {
  auto bad = archive_->engine().Invoke(
      get_image_, seeded_[0].dataset_urls[0], {{"slice", "x99"}},
      AuthorisedCtx());
  EXPECT_FALSE(bad.ok());
  EXPECT_GE(archive_->engine().stats().at("GetImage").failures, 1u);
}

TEST_F(EngineTest, SparseDatasetSimulatesNativeOps) {
  // Archive a paper-scale sparse dataset and run a native op over it.
  auto server = archive_->fleet().GetServer("fs1");
  ASSERT_TRUE((*server)->vfs().CreateSparseFile(
      "/archive/big.tbf", turb::Field::FileBytes(256)).ok());
  ASSERT_TRUE(archive_->Execute(
      "INSERT INTO RESULT_FILE (FILE_NAME, SIMULATION_KEY, FILE_FORMAT, "
      "DOWNLOAD_RESULT) VALUES ('big.tbf', '" + seeded_[0].simulation_key +
      "', 'TBF', 'http://fs1/archive/big.tbf')").ok());
  auto result = archive_->engine().Invoke(
      field_stats_, "http://fs1/archive/big.tbf", {}, AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->output.simulated);
  EXPECT_GT(result->input_bytes, 500000000u);
  EXPECT_LT(result->output_bytes, 1000u);
}

TEST_F(EngineTest, SparseDatasetRejectsScripts) {
  auto server = archive_->fleet().GetServer("fs2");
  ASSERT_TRUE((*server)->vfs().CreateSparseFile("/archive/sparse.tbf",
                                                1000000).ok());
  Status s = archive_->engine()
                 .Invoke(get_image_, "http://fs2/archive/sparse.tbf", {},
                         AuthorisedCtx())
                 .status();
  EXPECT_FALSE(s.ok());
}

TEST_F(EngineTest, UploadedCodeRunsAndWrites) {
  xuis::UploadSpec upload;
  upload.type = "EASCRIPT";
  upload.format = "ea";
  const char* kCode =
      "let s = tbf_stats(arg(0), \"u\");\n"
      "write(\"out.txt\", \"mean=\" + str(s[2]));\n"
      "print(\"done\");\n";
  auto result = archive_->engine().RunUploadedCode(
      upload, kCode, "main.ea", seeded_[0].dataset_urls[0], {},
      AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.text, "done\n");
  ASSERT_EQ(result->output.files.size(), 1u);
  EXPECT_EQ(result->output.files[0].first, "out.txt");
}

TEST_F(EngineTest, ScriptHelpersRepeatTheirAnswers) {
  const std::string& dataset = seeded_[0].dataset_urls[0];
  const std::string kCalls =
      "  let s = tbf_stats(f, \"p\");\n"
      "  let z = tbf_slice(f, \"y\", 3, \"v\");\n"
      "  print(str(tbf_n(f)) + \" \" + str(s[0]) + \" \" + str(s[3]) +\n"
      "        \" \" + str(len(z)) + \" \" + str(z[5]));\n";
  auto once = RunUpload("let f = arg(0);\n" + kCalls, dataset);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  auto thrice = RunUpload(
      "let f = arg(0);\nfor (let r = 0; r < 3; r = r + 1) {\n" + kCalls +
          "}\n",
      dataset);
  ASSERT_TRUE(thrice.ok()) << thrice.status().ToString();
  EXPECT_EQ(thrice->output.text,
            once->output.text + once->output.text + once->output.text);
  // And the answers are the dataset's own.
  auto resolved = archive_->fleet().Resolve(dataset);
  ASSERT_TRUE(resolved.ok());
  turb::Field field = *turb::ParseTbf(
      *resolved->first->vfs().ReadFile(resolved->second.path));
  turb::FieldStats p = field.Stats(turb::Component::kP);
  turb::Slice2D y3 = *field.Slice('y', 3, turb::Component::kV);
  auto show = [](double v) {
    return script::ScriptValue::Number(v).ToDisplay();
  };
  EXPECT_EQ(once->output.text, show(8) + " " + show(p.min) + " " +
                                   show(p.rms) + " " + show(64) + " " +
                                   show(y3.values[5]) + "\n");
}

TEST_F(EngineTest, ScriptHelpersReportAParseErrorOnEveryCall) {
  auto resolved = archive_->fleet().Resolve(seeded_[0].dataset_urls[0]);
  ASSERT_TRUE(resolved.ok());
  std::string bytes = *resolved->first->vfs().ReadFile(resolved->second.path);
  bytes.resize(bytes.size() - 10);
  ASSERT_TRUE(resolved->first->vfs()
                  .WriteFile("/archive/corrupt.tbf", bytes)
                  .ok());
  const std::string url = "http://" + resolved->second.host +
                          "/archive/corrupt.tbf";
  const std::string want = turb::ParseTbf(bytes).status().message();
  // Each helper, first or after a successful read(), in a fresh run or the
  // second time in the same one, returns the parse error.
  for (const char* code :
       {"tbf_n(arg(0));", "tbf_stats(arg(0), \"u\");",
        "tbf_slice(arg(0), \"x\", 0, \"u\");",
        "print(len(read(arg(0))));\ntbf_n(arg(0));"}) {
    for (int run = 0; run < 2; ++run) {
      Status s = RunUpload(code, url).status();
      EXPECT_TRUE(s.IsCorruption()) << code << " -> " << s.ToString();
      EXPECT_NE(s.message().find(want), std::string::npos)
          << code << " -> " << s.ToString();
    }
  }
}

TEST_F(EngineTest, ScriptReadReturnsTheExactDatasetBytes) {
  const std::string& dataset = seeded_[0].dataset_urls[0];
  auto result = RunUpload(
      "let n = tbf_n(arg(0));\nwrite(\"copy.tbf\", read(arg(0)));\n",
      dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto resolved = archive_->fleet().Resolve(dataset);
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(result->output.files.size(), 1u);
  EXPECT_EQ(result->output.files[0].second,
            *resolved->first->vfs().ReadFile(resolved->second.path));
}

TEST_F(EngineTest, ScriptSizesOutsideSizeTAreRefused) {
  const std::string& dataset = seeded_[0].dataset_urls[0];
  // Each of these numbers has no size_t value; casting it is undefined.
  for (const char* code :
       {"tbf_slice(arg(0), \"x\", -1, \"u\");",
        "tbf_slice(arg(0), \"x\", 1e300, \"u\");",
        "pgm([], -1, 0);", "pgm([], 0, -2);"}) {
    Status s = RunUpload(code, dataset).status();
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << code << " -> "
                                                 << s.ToString();
  }
  // 2^32 x 2^32 cells wrap to 0 in size_t, which must not match [].
  Status wrap =
      RunUpload("pgm([], 4294967296, 4294967296);", dataset).status();
  EXPECT_EQ(wrap.code(), StatusCode::kInvalidArgument) << wrap.ToString();
  // In-range fractional indexes still truncate, as before.
  auto ok = RunUpload("print(len(tbf_slice(arg(0), \"x\", 2.5, \"u\")));",
                      dataset);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->output.text, "64\n");
}

TEST_F(EngineTest, UploadedCodeGuestDenied) {
  xuis::UploadSpec upload;
  upload.guest_access = false;
  InvocationContext guest;
  guest.is_guest = true;
  Status s = archive_->engine()
                 .RunUploadedCode(upload, "print(1);", "main.ea",
                                  seeded_[0].dataset_urls[0], {}, guest)
                 .status();
  EXPECT_TRUE(s.IsPermissionDenied());
}

TEST_F(EngineTest, SandboxBlocksAbsolutePathWrites) {
  xuis::UploadSpec upload;
  upload.format = "ea";
  for (const char* bad : {"write(\"/etc/passwd\", \"x\");",
                          "write(\"../escape\", \"x\");",
                          "read(\"/other/file\");"}) {
    Status s = archive_->engine()
                   .RunUploadedCode(upload, bad, "main.ea",
                                    seeded_[0].dataset_urls[0], {},
                                    AuthorisedCtx())
                   .status();
    EXPECT_TRUE(s.IsPermissionDenied()) << bad << " -> " << s.ToString();
  }
}

TEST_F(EngineTest, SandboxBlocksForeignTbfAccess) {
  xuis::UploadSpec upload;
  upload.format = "ea";
  Status s = archive_->engine()
                 .RunUploadedCode(upload,
                                  "tbf_n(\"/archive/other.tbf\");", "main.ea",
                                  seeded_[0].dataset_urls[0], {},
                                  AuthorisedCtx())
                 .status();
  EXPECT_TRUE(s.IsPermissionDenied());
}

TEST_F(EngineTest, UploadedBundleFormat) {
  xuis::UploadSpec upload;
  upload.type = "EASCRIPT";
  upload.format = "jar";
  std::string bundle = PackArchive(
      {{"entry.ea", "print(\"bundled\");"}, {"lib.ea", "# unused"}});
  auto result = archive_->engine().RunUploadedCode(
      upload, bundle, "entry.ea", seeded_[0].dataset_urls[0], {},
      AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.text, "bundled\n");
  // Missing entry is an error.
  EXPECT_FALSE(archive_->engine()
                   .RunUploadedCode(upload, bundle, "nope.ea",
                                    seeded_[0].dataset_urls[0], {},
                                    AuthorisedCtx())
                   .ok());
}

TEST_F(EngineTest, UrlOperationInvokesEndpoint) {
  ASSERT_TRUE(core::AttachSdbUrlOperation(archive_.get(), "fs1").ok());
  xuis::OperationSpec sdb = FindOp("SDB");
  // Use a dataset on fs1 so the endpoint's VFS sees it.
  std::string url_on_fs1;
  for (const std::string& url : seeded_[0].dataset_urls) {
    if (url.find("//fs1/") != std::string::npos) url_on_fs1 = url;
  }
  ASSERT_FALSE(url_on_fs1.empty());
  auto result = archive_->engine().Invoke(sdb, url_on_fs1, {},
                                          AuthorisedCtx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->output.text.find("NCSA Scientific Data Browser"),
            std::string::npos);
  EXPECT_NE(result->output.text.find("8x8x8 grid"), std::string::npos);
}

}  // namespace
}  // namespace easia::ops

namespace easia::ops {
namespace {

// Re-declare a light fixture for the future-work extensions (operation
// chaining + runtime progress monitoring).
class ChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = std::make_unique<core::Archive>();
    archive_->AddFileServer("fs1", 8.0);
    ASSERT_TRUE(core::CreateTurbulenceSchema(archive_.get()).ok());
    core::SeedOptions seed;
    seed.hosts = {"fs1"};
    seed.simulations = 1;
    seed.timesteps_per_simulation = 1;
    seed.grid_n = 8;
    auto seeded = core::SeedTurbulenceData(archive_.get(), seed);
    ASSERT_TRUE(seeded.ok());
    dataset_ = (*seeded)[0].dataset_urls[0];
    subsample_.name = "Subsample";
    subsample_.type = "NATIVE";
    subsample_.guest_access = true;
    subsample_.location.kind = xuis::OperationLocation::Kind::kUrl;
    subsample_.location.url = "native:builtin";
    get_image_ = subsample_;
    get_image_.name = "GetImage";
    stats_op_ = subsample_;
    stats_op_.name = "FieldStats";
    ctx_.user = "alice";
    ctx_.is_guest = false;
  }

  std::unique_ptr<core::Archive> archive_;
  std::string dataset_;
  xuis::OperationSpec subsample_;
  xuis::OperationSpec get_image_;
  xuis::OperationSpec stats_op_;
  InvocationContext ctx_;
};

TEST_F(ChainTest, SubsampleThenGetImage) {
  // Chain: decimate the 8^3 grid to 4^3, then slice-render the result.
  std::vector<ChainStep> steps = {
      {&subsample_, {{"factor", "2"}}},
      {&get_image_, {{"slice", "x1"}, {"type", "u"}}},
  };
  auto results = archive_->engine().InvokeChain(steps, dataset_, ctx_);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 2u);
  // Step 2 consumed step 1's output (a 4^3 TBF): the PGM is 4x4.
  const std::string& pgm = (*results)[1].output.files[0].second;
  EXPECT_NE(pgm.find("4 4"), std::string::npos) << pgm.substr(0, 20);
  // The intermediate product stayed on fs1 (never crossed the network).
  EXPECT_EQ((*results)[0].host, "fs1");
  EXPECT_EQ((*results)[1].host, "fs1");
}

TEST_F(ChainTest, ChainStopsAtTextOnlyStep) {
  // FieldStats emits stats.txt, which is not a dataset GetImage can read.
  std::vector<ChainStep> steps = {
      {&stats_op_, {}},
      {&get_image_, {}},
  };
  auto results = archive_->engine().InvokeChain(steps, dataset_, ctx_);
  EXPECT_FALSE(results.ok());  // second step fails parsing stats.txt
}

TEST_F(ChainTest, EmptyChainRejected) {
  EXPECT_FALSE(archive_->engine().InvokeChain({}, dataset_, ctx_).ok());
}

TEST_F(ChainTest, ChainGuardsGuestAccessPerStep) {
  subsample_.guest_access = false;
  InvocationContext guest;
  guest.is_guest = true;
  std::vector<ChainStep> steps = {{&subsample_, {}}, {&get_image_, {}}};
  EXPECT_TRUE(archive_->engine()
                  .InvokeChain(steps, dataset_, guest)
                  .status()
                  .IsPermissionDenied());
}

TEST_F(ChainTest, ProgressEventsEmittedInOrder) {
  std::vector<std::string> stages;
  archive_->engine().set_progress_listener(
      [&](const ProgressEvent& event) {
        stages.push_back(std::string(ProgressStageName(event.stage)) + ":" +
                         event.operation);
      });
  ASSERT_TRUE(archive_->engine()
                  .Invoke(get_image_, dataset_, {{"slice", "x1"}}, ctx_)
                  .ok());
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages.front(), "executing:GetImage");
  EXPECT_EQ(stages.back(), "done:GetImage");
}

TEST_F(ChainTest, ProgressReportsFailures) {
  std::vector<ProgressEvent> events;
  archive_->engine().set_progress_listener(
      [&](const ProgressEvent& event) { events.push_back(event); });
  (void)archive_->engine().Invoke(get_image_, dataset_, {{"slice", "x99"}},
                                  ctx_);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().stage, ProgressEvent::Stage::kFailed);
  EXPECT_NE(events.back().detail.find("out of range"), std::string::npos);
}

TEST_F(ChainTest, ScriptOperationEmitsAllStages) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  ASSERT_TRUE(core::AttachGetImageOperation(archive_.get(),
                                            "S19990100000001", 8).ok());
  const xuis::XuisColumn* col = archive_->xuis().Default().FindColumnById(
      "RESULT_FILE.DOWNLOAD_RESULT");
  const xuis::OperationSpec* script_op = &col->operations[0];
  std::vector<std::string> stages;
  archive_->engine().set_progress_listener(
      [&](const ProgressEvent& event) {
        stages.push_back(std::string(ProgressStageName(event.stage)));
      });
  ASSERT_TRUE(archive_->engine().Invoke(*script_op, dataset_, {}, ctx_).ok());
  EXPECT_EQ(stages, (std::vector<std::string>{
                        "executing", "resolving-code", "staging",
                        "collecting-outputs", "done"}));
}

}  // namespace
}  // namespace easia::ops
