#include <gtest/gtest.h>

#include "core/archive.h"
#include "core/turbulence_setup.h"
#include "xuis/customize.h"
#include "xuis/generator.h"
#include "xuis/model.h"
#include "xuis/serialize.h"

namespace easia::xuis {
namespace {

class XuisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = std::make_unique<core::Archive>();
    archive_->AddFileServer("fs1");
    ASSERT_TRUE(core::CreateTurbulenceSchema(archive_.get()).ok());
    core::SeedOptions seed;
    seed.hosts = {"fs1"};
    seed.simulations = 2;
    seed.timesteps_per_simulation = 2;
    seed.grid_n = 8;
    auto seeded = core::SeedTurbulenceData(archive_.get(), seed);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    seeded_ = *seeded;
  }

  std::unique_ptr<core::Archive> archive_;
  std::vector<core::SeededSimulation> seeded_;
};

TEST_F(XuisTest, GeneratorExtractsSchema) {
  auto spec = GenerateDefaultXuis(archive_->database());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->database, "EASIA");
  EXPECT_EQ(spec->tables.size(), 5u);
  const XuisTable* sim = spec->FindTable("SIMULATION");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->primary_key, "SIMULATION.SIMULATION_KEY");
  const XuisColumn* key = sim->FindColumn("SIMULATION_KEY");
  ASSERT_NE(key, nullptr);
  EXPECT_TRUE(key->is_primary_key);
  // Primary-key browsing targets: the three referencing tables.
  EXPECT_EQ(key->referenced_by.size(), 3u);
  const XuisColumn* fk = sim->FindColumn("AUTHOR_KEY");
  ASSERT_NE(fk, nullptr);
  ASSERT_TRUE(fk->fk.has_value());
  EXPECT_EQ(fk->fk->table_column, "AUTHOR.AUTHOR_KEY");
}

TEST_F(XuisTest, GeneratorRecordsTypesAndSizes) {
  auto spec = GenerateDefaultXuis(archive_->database());
  ASSERT_TRUE(spec.ok());
  const XuisColumn* col = spec->FindColumnById("AUTHOR.AUTHOR_KEY");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->type, db::DataType::kVarchar);
  EXPECT_EQ(col->size, 30u);
  const XuisColumn* dl =
      spec->FindColumnById("RESULT_FILE.DOWNLOAD_RESULT");
  ASSERT_NE(dl, nullptr);
  EXPECT_EQ(dl->type, db::DataType::kDatalink);
}

TEST_F(XuisTest, GeneratorHarvestsSamples) {
  GeneratorOptions opts;
  opts.samples_per_column = 2;
  auto spec = GenerateDefaultXuis(archive_->database(), opts);
  ASSERT_TRUE(spec.ok());
  const XuisColumn* key = spec->FindColumnById("SIMULATION.SIMULATION_KEY");
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->samples.size(), 2u);
  // CLOBs never produce samples.
  const XuisColumn* desc = spec->FindColumnById("SIMULATION.DESCRIPTION");
  ASSERT_NE(desc, nullptr);
  EXPECT_TRUE(desc->samples.empty());
}

TEST_F(XuisTest, SamplesAreTheFirstDistinctValuesInRowIdOrder) {
  db::Database& db = archive_->database();
  ASSERT_TRUE(
      db.Execute("CREATE TABLE TAGS (ID INTEGER PRIMARY KEY, T VARCHAR(4))")
          .ok());
  const char* tags[] = {"'c'", "'a'", "'c'", "NULL", "'b'", "'d'", "'a'"};
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO TAGS VALUES (" + std::to_string(i) +
                           ", " + tags[i] + ")")
                    .ok());
  }
  // Deleting and re-inserting moves 'c' to the newest RowId.
  ASSERT_TRUE(db.Execute("DELETE FROM TAGS WHERE ID = 0").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM TAGS WHERE ID = 2").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO TAGS VALUES (9, 'c')").ok());
  GeneratorOptions opts;
  opts.samples_per_column = 3;
  auto spec = GenerateDefaultXuis(db, opts);
  ASSERT_TRUE(spec.ok());
  const XuisColumn* col = spec->FindColumnById("TAGS.T");
  ASSERT_NE(col, nullptr);
  // RowId order now reads a, NULL, b, d, a, c: the first three distinct
  // values, NULL skipped, reported sorted.
  EXPECT_EQ(col->samples, (std::vector<std::string>{"a", "b", "d"}));
}

TEST_F(XuisTest, SampleHarvestingCanBeDisabled) {
  GeneratorOptions opts;
  opts.harvest_samples = false;
  auto spec = GenerateDefaultXuis(archive_->database(), opts);
  ASSERT_TRUE(spec.ok());
  for (const XuisTable& t : spec->tables) {
    for (const XuisColumn& c : t.columns) {
      EXPECT_TRUE(c.samples.empty());
    }
  }
}

TEST_F(XuisTest, SerialiseParseRoundTrip) {
  auto spec = GenerateDefaultXuis(archive_->database());
  ASSERT_TRUE(spec.ok());
  archive_->xuis().SetDefault(std::move(*spec));
  ASSERT_TRUE(core::AttachGetImageOperation(
      archive_.get(), seeded_[0].simulation_key, 8).ok());
  XuisCustomizer customizer(archive_->xuis().MutableDefault());
  UploadSpec upload;
  upload.type = "EASCRIPT";
  upload.format = "ea";
  Condition cond;
  cond.colid = "RESULT_FILE.MEASUREMENT";
  cond.op = Condition::Op::kEq;
  cond.value = "u,v,w,p";
  upload.conditions.push_back(cond);
  ASSERT_TRUE(
      customizer.SetUpload("RESULT_FILE.DOWNLOAD_RESULT", upload).ok());

  auto text = ToXmlText(archive_->xuis().Default());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto back = ParseXuisText(*text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->tables.size(), 5u);
  EXPECT_EQ(back->TotalColumns(),
            archive_->xuis().Default().TotalColumns());
  const XuisColumn* dl = back->FindColumnById("RESULT_FILE.DOWNLOAD_RESULT");
  ASSERT_NE(dl, nullptr);
  ASSERT_TRUE(dl->upload.has_value());
  EXPECT_EQ(dl->upload->conditions.size(), 1u);
  EXPECT_EQ(dl->upload->conditions[0].value, "u,v,w,p");
}

TEST_F(XuisTest, OperationSerialisationPreservesEverything) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  ASSERT_TRUE(core::AttachGetImageOperation(
      archive_.get(), seeded_[0].simulation_key, 8).ok());
  auto text = ToXmlText(archive_->xuis().Default());
  ASSERT_TRUE(text.ok());
  auto back = ParseXuisText(*text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const XuisColumn* dl = back->FindColumnById("RESULT_FILE.DOWNLOAD_RESULT");
  ASSERT_EQ(dl->operations.size(), 1u);
  const OperationSpec& op = dl->operations[0];
  EXPECT_EQ(op.name, "GetImage");
  EXPECT_EQ(op.type, "EASCRIPT");
  EXPECT_EQ(op.format, "jar");
  EXPECT_TRUE(op.guest_access);
  ASSERT_EQ(op.conditions.size(), 1u);
  EXPECT_EQ(op.conditions[0].colid, "RESULT_FILE.SIMULATION_KEY");
  EXPECT_EQ(op.location.kind, OperationLocation::Kind::kDatabaseResult);
  EXPECT_EQ(op.location.result_colid, "CODE_FILE.DOWNLOAD_CODE_FILE");
  ASSERT_EQ(op.location.conditions.size(), 1u);
  EXPECT_EQ(op.location.conditions[0].value, "GetImage.jar");
  ASSERT_EQ(op.parameters.size(), 2u);
  EXPECT_EQ(op.parameters[0].control, ParamSpec::Control::kSelect);
  EXPECT_EQ(op.parameters[0].name, "slice");
  EXPECT_EQ(op.parameters[0].select_size, 4);
  EXPECT_FALSE(op.parameters[0].options.empty());
  EXPECT_EQ(op.parameters[1].control, ParamSpec::Control::kRadio);
  EXPECT_EQ(op.parameters[1].options.size(), 4u);
}

TEST_F(XuisTest, CustomizerMutations) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.SetTableAlias("AUTHOR", "Author").ok());
  ASSERT_TRUE(c.SetColumnAlias("AUTHOR.NAME", "Name").ok());
  ASSERT_TRUE(c.HideColumn("AUTHOR.EMAIL").ok());
  ASSERT_TRUE(c.HideTable("VISUALISATION_FILE").ok());
  ASSERT_TRUE(c.SetFkSubstitution("SIMULATION.AUTHOR_KEY",
                                  "AUTHOR.NAME").ok());
  ASSERT_TRUE(c.SetSamples("SIMULATION.GRID_SIZE", {"64", "128"}).ok());
  const XuisSpec& spec = archive_->xuis().Default();
  EXPECT_EQ(spec.FindTable("AUTHOR")->DisplayName(), "Author");
  EXPECT_TRUE(spec.FindColumnById("AUTHOR.EMAIL")->hidden);
  EXPECT_EQ(spec.VisibleTables().size(), 4u);
  EXPECT_EQ(spec.FindColumnById("SIMULATION.AUTHOR_KEY")->fk->subst_column,
            "AUTHOR.NAME");
  EXPECT_EQ(spec.FindColumnById("SIMULATION.GRID_SIZE")->samples.size(), 2u);
}

TEST_F(XuisTest, CustomizerErrors) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  XuisCustomizer c(archive_->xuis().MutableDefault());
  EXPECT_FALSE(c.SetTableAlias("NOPE", "x").ok());
  EXPECT_FALSE(c.SetColumnAlias("AUTHOR.NOPE", "x").ok());
  EXPECT_FALSE(c.SetColumnAlias("badcolid", "x").ok());
  // FK substitution requires an existing relationship.
  EXPECT_FALSE(c.SetFkSubstitution("AUTHOR.NAME", "X.Y").ok());
  // User-defined relationship cannot overwrite a real FK.
  EXPECT_FALSE(c.AddUserDefinedRelationship("SIMULATION.AUTHOR_KEY",
                                            "X.Y").ok());
}

TEST_F(XuisTest, UserDefinedRelationship) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.AddUserDefinedRelationship("VISUALISATION_FILE.VIS_NAME",
                                           "RESULT_FILE.FILE_NAME").ok());
  const XuisColumn* col =
      archive_->xuis().Default().FindColumnById(
          "VISUALISATION_FILE.VIS_NAME");
  ASSERT_TRUE(col->fk.has_value());
  EXPECT_TRUE(col->fk->user_defined);
  // Survives serialisation.
  auto text = ToXmlText(archive_->xuis().Default());
  ASSERT_TRUE(text.ok());
  auto back = ParseXuisText(*text);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->FindColumnById("VISUALISATION_FILE.VIS_NAME")
                  ->fk->user_defined);
}

TEST_F(XuisTest, RegistryPersonalisation) {
  ASSERT_TRUE(archive_->InitializeXuis().ok());
  XuisSpec personal = archive_->xuis().Default();
  personal.user = "bob";
  XuisCustomizer c(&personal);
  ASSERT_TRUE(c.HideTable("CODE_FILE").ok());
  archive_->xuis().SetForUser("bob", std::move(personal));
  EXPECT_TRUE(archive_->xuis().HasPersonal("bob"));
  EXPECT_FALSE(archive_->xuis().HasPersonal("alice"));
  EXPECT_EQ(archive_->xuis().For("bob").VisibleTables().size(), 4u);
  EXPECT_EQ(archive_->xuis().For("alice").VisibleTables().size(), 5u);
}

TEST(ConditionTest, Operators) {
  Condition c;
  c.colid = "T.C";
  c.value = "S1";
  c.op = Condition::Op::kEq;
  EXPECT_TRUE(c.Matches("S1"));
  EXPECT_FALSE(c.Matches("S2"));
  c.op = Condition::Op::kNe;
  EXPECT_TRUE(c.Matches("S2"));
  c.op = Condition::Op::kLike;
  c.value = "S%";
  EXPECT_TRUE(c.Matches("S123"));
  EXPECT_FALSE(c.Matches("X"));
  c.op = Condition::Op::kLt;
  c.value = "10";
  EXPECT_TRUE(c.Matches("9"));     // numeric comparison
  EXPECT_FALSE(c.Matches("11"));
  c.op = Condition::Op::kGt;
  c.value = "abc";
  EXPECT_TRUE(c.Matches("abd"));   // lexicographic fallback
}

TEST(OperationSpecTest, AppliesTo) {
  OperationSpec op;
  Condition c1;
  c1.colid = "T.KEY";
  c1.op = Condition::Op::kEq;
  c1.value = "S1";
  Condition c2;
  c2.colid = "T.FMT";
  c2.op = Condition::Op::kEq;
  c2.value = "TBF";
  op.conditions = {c1, c2};
  auto cells = [](const std::string& colid) -> std::optional<std::string> {
    if (colid == "T.KEY") return "S1";
    if (colid == "T.FMT") return "TBF";
    return std::nullopt;
  };
  EXPECT_TRUE(op.AppliesTo(cells));
  auto wrong = [](const std::string& colid) -> std::optional<std::string> {
    if (colid == "T.KEY") return "S2";
    if (colid == "T.FMT") return "TBF";
    return std::nullopt;
  };
  EXPECT_FALSE(op.AppliesTo(wrong));
  auto missing = [](const std::string&) -> std::optional<std::string> {
    return std::nullopt;
  };
  EXPECT_FALSE(op.AppliesTo(missing));
}

TEST(SplitColidTest, Parsing) {
  auto ok = SplitColid("TABLE.COLUMN");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, "TABLE");
  EXPECT_EQ(ok->second, "COLUMN");
  EXPECT_FALSE(SplitColid("NODOT").ok());
  EXPECT_FALSE(SplitColid(".X").ok());
  EXPECT_FALSE(SplitColid("X.").ok());
}

}  // namespace
}  // namespace easia::xuis
