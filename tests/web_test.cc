#include <gtest/gtest.h>

#include "core/archive.h"
#include "core/turbulence_setup.h"
#include "web/html.h"
#include "web/qbe.h"
#include "web/session.h"
#include "web/users.h"

namespace easia::web {
namespace {

// ---- Users ----

TEST(UserManagerTest, GuestSeededByDefault) {
  UserManager users;
  auto guest = users.Authenticate("guest", "guest");
  ASSERT_TRUE(guest.ok());
  EXPECT_TRUE(guest->IsGuest());
  EXPECT_FALSE(guest->CanDownload());
  EXPECT_FALSE(guest->CanUploadCode());
}

TEST(UserManagerTest, AddAuthenticateRoles) {
  UserManager users;
  ASSERT_TRUE(users.AddUser("alice", "pw", UserRole::kAuthorised).ok());
  ASSERT_TRUE(users.AddUser("root", "pw2", UserRole::kAdmin).ok());
  EXPECT_TRUE(users.Authenticate("alice", "pw")->CanDownload());
  EXPECT_TRUE(users.Authenticate("root", "pw2")->CanManageUsers());
  EXPECT_FALSE(users.Authenticate("alice", "pw")->CanManageUsers());
  EXPECT_TRUE(users.Authenticate("alice", "wrong").status()
                  .IsPermissionDenied());
  EXPECT_TRUE(users.Authenticate("nobody", "pw").status()
                  .IsPermissionDenied());
}

TEST(UserManagerTest, DuplicateAndRemove) {
  UserManager users;
  ASSERT_TRUE(users.AddUser("a", "x", UserRole::kGuest).ok());
  EXPECT_FALSE(users.AddUser("a", "y", UserRole::kGuest).ok());
  ASSERT_TRUE(users.RemoveUser("a").ok());
  EXPECT_FALSE(users.RemoveUser("a").ok());
}

TEST(UserManagerTest, PasswordChange) {
  UserManager users;
  ASSERT_TRUE(users.AddUser("a", "old", UserRole::kGuest).ok());
  ASSERT_TRUE(users.SetPassword("a", "new").ok());
  EXPECT_FALSE(users.Authenticate("a", "old").ok());
  EXPECT_TRUE(users.Authenticate("a", "new").ok());
}

// ---- Sessions ----

TEST(SessionTest, LoginGetLogout) {
  UserManager users;
  ManualClock clock(0);
  SessionManager sessions(&users, &clock, 100.0);
  auto id = sessions.Login("guest", "guest");
  ASSERT_TRUE(id.ok());
  auto session = sessions.Get(*id);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->user.name, "guest");
  ASSERT_TRUE(sessions.Logout(*id).ok());
  EXPECT_FALSE(sessions.Get(*id).ok());
}

TEST(SessionTest, IdleTimeout) {
  UserManager users;
  ManualClock clock(0);
  SessionManager sessions(&users, &clock, 100.0);
  std::string id = *sessions.Login("guest", "guest");
  clock.Advance(90);
  EXPECT_TRUE(sessions.Get(id).ok());  // touch refreshes
  clock.Advance(90);
  EXPECT_TRUE(sessions.Get(id).ok());
  clock.Advance(101);
  EXPECT_TRUE(sessions.Get(id).status().IsTokenExpired());
}

TEST(SessionTest, SweepExpired) {
  UserManager users;
  ManualClock clock(0);
  SessionManager sessions(&users, &clock, 50.0);
  (void)*sessions.Login("guest", "guest");
  (void)*sessions.Login("guest", "guest");
  clock.Advance(51);
  EXPECT_EQ(sessions.SweepExpired(), 2u);
  EXPECT_EQ(sessions.ActiveCount(), 0u);
}

TEST(SessionTest, IdsAreUnique) {
  UserManager users;
  ManualClock clock(0);
  SessionManager sessions(&users, &clock);
  EXPECT_NE(*sessions.Login("guest", "guest"),
            *sessions.Login("guest", "guest"));
}

// ---- HTML ----

TEST(HtmlWriterTest, NestingAndEscaping) {
  HtmlWriter w;
  w.Open("p", {{"class", "a\"b"}}).Text("1 < 2").Close();
  EXPECT_EQ(w.str(), "<p class=\"a&quot;b\">1 &lt; 2</p>");
}

TEST(HtmlWriterTest, FinishClosesOpenTags) {
  HtmlWriter w;
  w.Open("div").Open("ul").Open("li").Text("x");
  EXPECT_EQ(w.Finish(), "<div><ul><li>x</li></ul></div>");
}

TEST(UrlEncodeTest, EncodesReserved) {
  EXPECT_EQ(UrlEncode("a b&c=d/e"), "a%20b%26c%3Dd%2Fe");
  EXPECT_EQ(UrlEncode("safe-chars_1.2~"), "safe-chars_1.2~");
}

TEST(BuildUrlTest, QueryString) {
  EXPECT_EQ(BuildUrl("/browse", {{"table", "AUTHOR"}, {"value", "A 1"}}),
            "/browse?table=AUTHOR&value=A%201");
  EXPECT_EQ(BuildUrl("/x", {}), "/x");
}

// ---- QBE + full web stack over a real archive ----

class WebTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = std::make_unique<core::Archive>();
    archive_->AddFileServer("fs1", 8.0);
    ASSERT_TRUE(core::CreateTurbulenceSchema(archive_.get()).ok());
    core::SeedOptions seed;
    seed.hosts = {"fs1"};
    seed.simulations = 2;
    seed.timesteps_per_simulation = 2;
    seed.grid_n = 8;
    auto seeded = core::SeedTurbulenceData(archive_.get(), seed);
    ASSERT_TRUE(seeded.ok());
    seeded_ = *seeded;
    ASSERT_TRUE(archive_->InitializeXuis().ok());
    ASSERT_TRUE(core::AttachGetImageOperation(
        archive_.get(), seeded_[0].simulation_key, 8).ok());
    ASSERT_TRUE(core::AttachCodeUpload(archive_.get()).ok());
    ASSERT_TRUE(
        archive_->AddUser("alice", "pw", UserRole::kAuthorised).ok());
    ASSERT_TRUE(archive_->AddUser("root", "pw", UserRole::kAdmin).ok());
    alice_ = *archive_->Login("alice", "pw");
    guest_ = *archive_->Login("guest", "guest");
  }

  const xuis::XuisSpec& Spec() { return archive_->xuis().Default(); }

  std::unique_ptr<core::Archive> archive_;
  std::vector<core::SeededSimulation> seeded_;
  std::string alice_;
  std::string guest_;
};

TEST_F(WebTest, QbeTranslationBasics) {
  QbeRequest req;
  req.table = "SIMULATION";
  req.selected_columns = {"SIMULATION_KEY", "TITLE"};
  req.restrictions = {{"GRID_SIZE", ">=", "8"},
                      {"TITLE", "LIKE", "Decaying%"}};
  req.order_by = "SIMULATION_KEY";
  req.descending = true;
  req.limit = 10;
  auto sql = TranslateToSql(Spec(), req);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql,
            "SELECT SIMULATION_KEY, TITLE FROM SIMULATION "
            "WHERE GRID_SIZE >= 8 AND TITLE LIKE 'Decaying%' "
            "ORDER BY SIMULATION_KEY DESC LIMIT 10");
  // And it runs.
  EXPECT_TRUE(archive_->Execute(*sql).ok());
}

TEST_F(WebTest, QbeWildcardsBecomeLike) {
  QbeRequest req;
  req.table = "AUTHOR";
  req.restrictions = {{"NAME", "=", "A*r"}};
  auto sql = TranslateToSql(Spec(), req);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("NAME LIKE 'A%r'"), std::string::npos) << *sql;
  req.restrictions = {{"NAME", "=", "?mith"}};
  sql = TranslateToSql(Spec(), req);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("NAME LIKE '_mith'"), std::string::npos);
}

TEST_F(WebTest, QbePrimaryKeysAlwaysSelected) {
  QbeRequest req;
  req.table = "SIMULATION";
  req.selected_columns = {"TITLE"};
  auto sql = TranslateToSql(Spec(), req);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("SIMULATION_KEY"), std::string::npos);
}

TEST_F(WebTest, QbeRejectsHiddenAndUnknown) {
  xuis::XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.HideColumn("AUTHOR.EMAIL").ok());
  QbeRequest req;
  req.table = "AUTHOR";
  req.selected_columns = {"EMAIL"};
  EXPECT_TRUE(TranslateToSql(Spec(), req).status().IsPermissionDenied());
  req.selected_columns = {"NOPE"};
  EXPECT_TRUE(TranslateToSql(Spec(), req).status().IsNotFound());
  req.selected_columns = {};
  req.restrictions = {{"NAME", "DROP", "x"}};
  EXPECT_FALSE(TranslateToSql(Spec(), req).ok());
  // Numeric columns reject non-numeric restrictions (injection guard).
  req.restrictions = {{"AGE", "=", "1 OR 1=1"}};
  req.table = "AUTHOR";
  EXPECT_FALSE(TranslateToSql(Spec(), req).ok());
}

TEST_F(WebTest, QbeSqlInjectionViaQuotesIsEscaped) {
  QbeRequest req;
  req.table = "AUTHOR";
  req.restrictions = {{"NAME", "=", "x' OR '1'='1"}};
  auto sql = TranslateToSql(Spec(), req);
  ASSERT_TRUE(sql.ok());
  // The quotes must be doubled, making it a literal.
  EXPECT_NE(sql->find("'x'' OR ''1''=''1'"), std::string::npos) << *sql;
  auto result = archive_->Execute(*sql);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 0u);
}

TEST_F(WebTest, QueryFormListsColumnsOperatorsSamples) {
  std::string form = RenderQueryForm(*Spec().FindTable("SIMULATION"));
  EXPECT_NE(form.find("value.SIMULATION_KEY"), std::string::npos);
  EXPECT_NE(form.find("op.TITLE"), std::string::npos);
  EXPECT_NE(form.find("LIKE"), std::string::npos);
  EXPECT_NE(form.find("sample.SIMULATION_KEY"), std::string::npos);
  EXPECT_NE(form.find(seeded_[0].simulation_key), std::string::npos);
}

TEST_F(WebTest, LoginFlow) {
  auto good = archive_->Get("", "/login",
                            {{"user", "alice"}, {"password", "pw"}});
  EXPECT_EQ(good.status, 200);
  EXPECT_FALSE(good.body.empty());
  auto bad = archive_->Get("", "/login",
                           {{"user", "alice"}, {"password", "nope"}});
  EXPECT_EQ(bad.status, 403);
  auto no_session = archive_->Get("", "/tables");
  EXPECT_EQ(no_session.status, 401);
  auto bogus = archive_->Get("bogus-session", "/tables");
  EXPECT_EQ(bogus.status, 401);
}

TEST_F(WebTest, TablesIndex) {
  auto resp = archive_->Get(alice_, "/tables");
  ASSERT_EQ(resp.status, 200);
  for (const char* table : {"AUTHOR", "SIMULATION", "RESULT_FILE"}) {
    EXPECT_NE(resp.body.find(table), std::string::npos) << table;
  }
}

TEST_F(WebTest, SearchRendersLinksPerColumnKind) {
  auto resp = archive_->Get(alice_, "/search",
                            {{"table", "RESULT_FILE"}, {"all", "1"}});
  ASSERT_EQ(resp.status, 200) << resp.body;
  // FK browsing link to the parent simulation.
  EXPECT_NE(resp.body.find("/browse?column=SIMULATION_KEY&amp;table=SIMULATION"),
            std::string::npos) << resp.body;
  // DATALINK download link with an access token (';' separator).
  EXPECT_NE(resp.body.find(";"), std::string::npos);
  // Size display next to the file name.
  EXPECT_NE(resp.body.find("KB)"), std::string::npos);
  // Operations column present.
  EXPECT_NE(resp.body.find("GetImage"), std::string::npos);
  EXPECT_NE(resp.body.find("Upload code"), std::string::npos);
}

TEST_F(WebTest, GuestSeesNoDownloadLinkButCanBrowse) {
  auto resp = archive_->Get(guest_, "/search",
                            {{"table", "RESULT_FILE"}, {"all", "1"}});
  ASSERT_EQ(resp.status, 200);
  // Guest cell shows the file but there is no tokenised href for it.
  EXPECT_EQ(resp.body.find(".tbf\">"), std::string::npos) << resp.body;
  // Guests don't get the upload link either.
  EXPECT_EQ(resp.body.find("Upload code"), std::string::npos);
  // GetImage is guest-accessible so it still shows.
  EXPECT_NE(resp.body.find("GetImage"), std::string::npos);
}

TEST_F(WebTest, PrimaryKeyBrowsing) {
  auto resp = archive_->Get(alice_, "/search",
                            {{"table", "SIMULATION"}, {"all", "1"}});
  ASSERT_EQ(resp.status, 200);
  // SIMULATION_KEY links to the three referencing tables.
  EXPECT_NE(resp.body.find("[RESULT_FILE]"), std::string::npos);
  EXPECT_NE(resp.body.find("[CODE_FILE]"), std::string::npos);
  EXPECT_NE(resp.body.find("[VISUALISATION_FILE]"), std::string::npos);
  // Follow the browse link.
  auto browse = archive_->Get(alice_, "/browse",
                              {{"table", "RESULT_FILE"},
                               {"column", "SIMULATION_KEY"},
                               {"value", seeded_[0].simulation_key}});
  ASSERT_EQ(browse.status, 200);
  EXPECT_NE(browse.body.find("_t0000_n8.tbf"), std::string::npos);
}

TEST_F(WebTest, BrowseRespectsHiddenTablesAndColumns) {
  // FK/PK browsing must honour the same XUIS visibility rules as QBE —
  // previously BrowseSql skipped the hidden checks entirely.
  xuis::XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.HideColumn("RESULT_FILE.SIMULATION_KEY").ok());
  auto hidden_col = archive_->Get(alice_, "/browse",
                                  {{"table", "RESULT_FILE"},
                                   {"column", "SIMULATION_KEY"},
                                   {"value", seeded_[0].simulation_key}});
  EXPECT_EQ(hidden_col.status, 403) << hidden_col.body;
  ASSERT_TRUE(c.HideTable("CODE_FILE").ok());
  auto hidden_table = archive_->Get(alice_, "/browse",
                                    {{"table", "CODE_FILE"},
                                     {"column", "SIMULATION_KEY"},
                                     {"value", seeded_[0].simulation_key}});
  EXPECT_EQ(hidden_table.status, 403) << hidden_table.body;
  // Unknown table/column still report 400, not 403.
  auto unknown = archive_->Get(alice_, "/browse",
                               {{"table", "NOPE"},
                                {"column", "X"},
                                {"value", "1"}});
  EXPECT_EQ(unknown.status, 400);
}

TEST_F(WebTest, TypeaheadMatchesDirectLikeQuery) {
  auto resp = archive_->Get(alice_, "/typeahead",
                            {{"table", "SIMULATION"},
                             {"column", "TITLE"},
                             {"prefix", "Decaying"},
                             {"limit", "10"}});
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.content_type, "text/plain");
  auto direct = archive_->Execute(
      "SELECT DISTINCT TITLE FROM SIMULATION WHERE TITLE LIKE 'Decaying%' "
      "ORDER BY TITLE LIMIT 10");
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->rows.empty());
  std::string want;
  for (const auto& row : direct->rows) {
    want += row[0].ToDisplayString();
    want += "\n";
  }
  EXPECT_EQ(resp.body, want);
  // The limit caps the completion list.
  auto limited = archive_->Get(alice_, "/typeahead",
                               {{"table", "SIMULATION"},
                                {"column", "TITLE"},
                                {"prefix", "Decaying"},
                                {"limit", "1"}});
  ASSERT_EQ(limited.status, 200);
  EXPECT_EQ(limited.body, want.substr(0, want.find('\n') + 1));
  // No match -> empty body, still 200.
  auto none = archive_->Get(alice_, "/typeahead",
                            {{"table", "SIMULATION"},
                             {"column", "TITLE"},
                             {"prefix", "Zebra"}});
  ASSERT_EQ(none.status, 200);
  EXPECT_TRUE(none.body.empty());
}

TEST_F(WebTest, TypeaheadEscapesWildcardsInPrefix) {
  // A literal % in the typed prefix must not act as a wildcard: no title
  // contains a percent sign, so this returns nothing (an unescaped '%'
  // would match every row).
  auto resp = archive_->Get(alice_, "/typeahead",
                            {{"table", "SIMULATION"},
                             {"column", "TITLE"},
                             {"prefix", "%"}});
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_TRUE(resp.body.empty());
  // Same for '_' (would otherwise match any first character).
  auto underscore = archive_->Get(alice_, "/typeahead",
                                  {{"table", "SIMULATION"},
                                   {"column", "TITLE"},
                                   {"prefix", "_ecaying"}});
  ASSERT_EQ(underscore.status, 200);
  EXPECT_TRUE(underscore.body.empty());
  // Quotes cannot break out of the SQL literal.
  auto quote = archive_->Get(alice_, "/typeahead",
                             {{"table", "SIMULATION"},
                              {"column", "TITLE"},
                              {"prefix", "x' OR '1'='1"}});
  ASSERT_EQ(quote.status, 200) << quote.body;
  EXPECT_TRUE(quote.body.empty());
}

TEST_F(WebTest, TypeaheadRespectsHiddenTablesAndColumns) {
  xuis::XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.HideColumn("AUTHOR.EMAIL").ok());
  auto hidden_col = archive_->Get(alice_, "/typeahead",
                                  {{"table", "AUTHOR"},
                                   {"column", "EMAIL"},
                                   {"prefix", "a"}});
  EXPECT_EQ(hidden_col.status, 404) << hidden_col.body;
  ASSERT_TRUE(c.HideTable("CODE_FILE").ok());
  auto hidden_table = archive_->Get(alice_, "/typeahead",
                                    {{"table", "CODE_FILE"},
                                     {"column", "CODE_NAME"},
                                     {"prefix", "G"}});
  EXPECT_EQ(hidden_table.status, 404) << hidden_table.body;
  auto unknown = archive_->Get(alice_, "/typeahead",
                               {{"table", "NOPE"}, {"column", "X"}});
  EXPECT_EQ(unknown.status, 404);
  auto bad_limit = archive_->Get(alice_, "/typeahead",
                                 {{"table", "SIMULATION"},
                                  {"column", "TITLE"},
                                  {"prefix", "D"},
                                  {"limit", "0"}});
  EXPECT_EQ(bad_limit.status, 400);
  auto no_session = archive_->Get("", "/typeahead",
                                  {{"table", "SIMULATION"},
                                   {"column", "TITLE"}});
  EXPECT_EQ(no_session.status, 401);
}

TEST_F(WebTest, FkSubstitutionShowsName) {
  xuis::XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.SetFkSubstitution("SIMULATION.AUTHOR_KEY",
                                  "AUTHOR.NAME").ok());
  auto resp = archive_->Get(alice_, "/search",
                            {{"table", "SIMULATION"}, {"all", "1"}});
  ASSERT_EQ(resp.status, 200);
  // The FK cell displays the author's name, not the raw key.
  EXPECT_NE(resp.body.find("A. N. Author"), std::string::npos) << resp.body;
}

TEST_F(WebTest, ClobRematerialisation) {
  auto search = archive_->Get(alice_, "/search",
                              {{"table", "SIMULATION"}, {"all", "1"}});
  EXPECT_NE(search.body.find("clob"), std::string::npos);
  auto object = archive_->Get(
      alice_, "/object",
      {{"table", "SIMULATION"},
       {"column", "DESCRIPTION"},
       {"pk0.SIMULATION_KEY", seeded_[0].simulation_key}});
  ASSERT_EQ(object.status, 200) << object.body;
  EXPECT_EQ(object.content_type, "text/plain");
  EXPECT_NE(object.body.find("Direct numerical simulation"),
            std::string::npos);
}

TEST_F(WebTest, ObjectPutRejectsSqlInKeyParameter) {
  // A pkN.<col> key is a column name, never SQL: a key that smuggles in a
  // tautology is refused before anything executes.
  uint64_t statements = archive_->database().stats().statements;
  auto put = archive_->Get(
      alice_, "/object/put",
      {{"table", "SIMULATION"},
       {"column", "DESCRIPTION"},
       {"pk0.SIMULATION_KEY IS NOT NULL OR SIMULATION_KEY", "x"},
       {"value", "overwritten"}});
  EXPECT_EQ(put.status, 400) << put.body;
  EXPECT_EQ(archive_->database().stats().statements, statements);
  auto overwritten = archive_->Execute(
      "SELECT COUNT(*) FROM SIMULATION WHERE DESCRIPTION = 'overwritten'");
  ASSERT_TRUE(overwritten.ok());
  EXPECT_EQ(overwritten->rows[0][0].AsInt(), 0);
}

TEST_F(WebTest, ObjectKeyMustNameEachPrimaryKeyColumnOnce) {
  const std::string& key = seeded_[0].simulation_key;
  auto get = [&](fs::HttpParams params) {
    params["table"] = "SIMULATION";
    params["column"] = "DESCRIPTION";
    return archive_->Get(alice_, "/object", params).status;
  };
  auto put = [&](fs::HttpParams params) {
    params["table"] = "SIMULATION";
    params["column"] = "DESCRIPTION";
    params["value"] = "edited";
    return archive_->Get(alice_, "/object/put", params).status;
  };
  // Unknown column, a non-key column, a repeated key column, no key.
  for (const fs::HttpParams& params :
       {fs::HttpParams{{"pk0.NOPE", key}},
        fs::HttpParams{{"pk0.SIMULATION_KEY", key}, {"pk1.TITLE", "x"}},
        fs::HttpParams{{"pk0.SIMULATION_KEY", key},
                       {"pk1.simulation_key", key}},
        fs::HttpParams{}}) {
    EXPECT_EQ(get(params), 400);
    EXPECT_EQ(put(params), 400);
  }
  // Composite keys need every column: RESULT_FILE is keyed by
  // (FILE_NAME, SIMULATION_KEY).
  auto partial = archive_->Get(alice_, "/object",
                               {{"table", "RESULT_FILE"},
                                {"column", "MEASUREMENT"},
                                {"pk1.SIMULATION_KEY", key}});
  EXPECT_EQ(partial.status, 400) << partial.body;
  // The valid path writes exactly the named row.
  ASSERT_EQ(put({{"pk0.SIMULATION_KEY", key}}), 200);
  auto edited = archive_->Execute(
      "SELECT SIMULATION_KEY FROM SIMULATION WHERE DESCRIPTION = 'edited'");
  ASSERT_TRUE(edited.ok());
  ASSERT_EQ(edited->rows.size(), 1u);
  EXPECT_EQ(edited->rows[0][0].AsString(), key);
  EXPECT_EQ(get({{"pk0.SIMULATION_KEY", key}}), 200);
  EXPECT_EQ(get({{"pk0.SIMULATION_KEY", "NOPE"}}), 404);
}

TEST_F(WebTest, ObjectRespectsHiddenTablesAndColumns) {
  fs::HttpParams email = {{"table", "AUTHOR"},
                          {"column", "EMAIL"},
                          {"pk0.AUTHOR_KEY", seeded_[0].author_key}};
  ASSERT_EQ(archive_->Get(alice_, "/object", email).status, 200);
  xuis::XuisCustomizer c(archive_->xuis().MutableDefault());
  ASSERT_TRUE(c.HideColumn("AUTHOR.EMAIL").ok());
  auto hidden_col = archive_->Get(alice_, "/object", email);
  EXPECT_EQ(hidden_col.status, 403) << hidden_col.body;
  EXPECT_EQ(hidden_col.body.find("@example"), std::string::npos);
  // A hidden key column may not select the row either.
  ASSERT_TRUE(c.HideColumn("AUTHOR.AUTHOR_KEY").ok());
  EXPECT_EQ(archive_->Get(alice_, "/object",
                          {{"table", "AUTHOR"},
                           {"column", "NAME"},
                           {"pk0.AUTHOR_KEY", seeded_[0].author_key}})
                .status,
            403);
  ASSERT_TRUE(c.HideTable("SIMULATION").ok());
  fs::HttpParams description = {
      {"table", "SIMULATION"},
      {"column", "DESCRIPTION"},
      {"pk0.SIMULATION_KEY", seeded_[0].simulation_key}};
  EXPECT_EQ(archive_->Get(alice_, "/object", description).status, 403);
  description["value"] = "x";
  EXPECT_EQ(archive_->Get(alice_, "/object/put", description).status, 403);
  EXPECT_EQ(archive_->Get(alice_, "/object",
                          {{"table", "AUTHOR"},
                           {"column", "NOPE"},
                           {"pk0.AUTHOR_KEY", seeded_[0].author_key}})
                .status,
            404);
}

TEST_F(WebTest, QueryFormThenSearch) {
  auto form = archive_->Get(alice_, "/query", {{"table", "AUTHOR"}});
  ASSERT_EQ(form.status, 200);
  auto results = archive_->Get(alice_, "/search",
                               {{"table", "AUTHOR"},
                                {"show.NAME", "1"},
                                {"op.NAME", "LIKE"},
                                {"value.NAME", "%Author%"}});
  ASSERT_EQ(results.status, 200);
  EXPECT_NE(results.body.find("A. N. Author"), std::string::npos);
  EXPECT_EQ(results.body.find("B. Researcher"), std::string::npos);
}

TEST_F(WebTest, OperationFormAndRun) {
  std::string dataset = seeded_[0].dataset_urls[0];
  auto form = archive_->Get(alice_, "/opform",
                            {{"op", "GetImage"}, {"dataset", dataset}});
  ASSERT_EQ(form.status, 200);
  EXPECT_NE(form.body.find("Select the slice"), std::string::npos);
  EXPECT_NE(form.body.find("u speed"), std::string::npos);
  auto run = archive_->Get(alice_, "/runop",
                           {{"op", "GetImage"},
                            {"dataset", dataset},
                            {"slice", "x1"},
                            {"type", "p"}});
  ASSERT_EQ(run.status, 200) << run.body;
  EXPECT_NE(run.body.find("slice.pgm"), std::string::npos);
}

TEST_F(WebTest, UploadFormAndRun) {
  std::string dataset = seeded_[0].dataset_urls[0];
  auto form = archive_->Get(alice_, "/upload",
                            {{"table", "RESULT_FILE"},
                             {"column", "DOWNLOAD_RESULT"},
                             {"dataset", dataset}});
  ASSERT_EQ(form.status, 200);
  EXPECT_NE(form.body.find("textarea"), std::string::npos);
  auto run = archive_->Get(alice_, "/upload",
                           {{"table", "RESULT_FILE"},
                            {"column", "DOWNLOAD_RESULT"},
                            {"dataset", dataset},
                            {"code", "print(tbf_n(arg(0)));"}});
  ASSERT_EQ(run.status, 200) << run.body;
  EXPECT_NE(run.body.find("8"), std::string::npos);
  // Guests are refused outright.
  auto guest_run = archive_->Get(guest_, "/upload",
                                 {{"table", "RESULT_FILE"},
                                  {"column", "DOWNLOAD_RESULT"},
                                  {"dataset", dataset},
                                  {"code", "print(1);"}});
  EXPECT_EQ(guest_run.status, 403);
}

TEST_F(WebTest, UserManagementAdminOnly) {
  std::string root = *archive_->Login("root", "pw");
  auto list = archive_->Get(root, "/users");
  ASSERT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("alice"), std::string::npos);
  auto add = archive_->Get(root, "/users/add",
                           {{"user", "bob"}, {"password", "x"},
                            {"role", "authorised"}});
  ASSERT_EQ(add.status, 200);
  EXPECT_TRUE(archive_->Login("bob", "x").ok());
  auto remove = archive_->Get(root, "/users/remove", {{"user", "bob"}});
  ASSERT_EQ(remove.status, 200);
  EXPECT_FALSE(archive_->Login("bob", "x").ok());
  // Non-admins bounce.
  EXPECT_EQ(archive_->Get(alice_, "/users").status, 403);
  EXPECT_EQ(archive_->Get(guest_, "/users").status, 403);
}

TEST_F(WebTest, PersonalisedXuisChangesView) {
  xuis::XuisSpec trimmed = archive_->xuis().Default();
  xuis::XuisCustomizer c(&trimmed);
  ASSERT_TRUE(c.HideTable("CODE_FILE").ok());
  archive_->xuis().SetForUser("guest", std::move(trimmed));
  auto guest_tables = archive_->Get(guest_, "/tables");
  EXPECT_EQ(guest_tables.body.find("CODE_FILE"), std::string::npos);
  auto alice_tables = archive_->Get(alice_, "/tables");
  EXPECT_NE(alice_tables.body.find("CODE_FILE"), std::string::npos);
}

TEST_F(WebTest, UnknownRouteIs404) {
  EXPECT_EQ(archive_->Get(alice_, "/nonsense").status, 404);
  EXPECT_EQ(archive_->Get(alice_, "/query", {{"table", "NOPE"}}).status, 404);
  EXPECT_EQ(archive_->Get(alice_, "/opform", {{"op", "NOPE"}}).status, 404);
}

TEST_F(WebTest, SessionExpiryBouncesRequests) {
  archive_->clock().Advance(archive_->options().session_timeout_seconds + 1);
  EXPECT_EQ(archive_->Get(alice_, "/tables").status, 401);
}

}  // namespace
}  // namespace easia::web
