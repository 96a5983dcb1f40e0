// End-to-end tests of the PowerPlay web application: the paper's
// login -> menu -> library -> model form -> spreadsheet -> Play loop,
// plus the model-creation form and the export API.
#include "web/app.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "library/textio.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "units/units.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace powerplay::web {
namespace {

namespace fs = std::filesystem;

struct AppFixture : ::testing::Test {
  fs::path dir;
  std::unique_ptr<PowerPlayApp> app;
  std::unique_ptr<HttpServer> server;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_app_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
    app = std::make_unique<PowerPlayApp>(library::LibraryStore(dir));
    server = std::make_unique<HttpServer>(
        0, [this](const Request& r) { return app->handle(r); });
    server->start();
  }

  void TearDown() override {
    server->stop();
    fs::remove_all(dir);
  }

  [[nodiscard]] Response get(const std::string& target) const {
    return http_get(server->port(), target);
  }
  [[nodiscard]] Response post(const std::string& path,
                              const Params& form) const {
    return http_post_form(server->port(), path, form);
  }
};

TEST_F(AppFixture, RootShowsIdentificationForm) {
  const Response r = get("/");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("identify"), std::string::npos);
  EXPECT_NE(r.body.find("name=\"user\""), std::string::npos);
}

TEST_F(AppFixture, MenuShowsDefaultsWithoutSavingAProfile) {
  const Response r = get("/menu?user=dlidsky");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("dlidsky"), std::string::npos);
  EXPECT_NE(r.body.find("vdd"), std::string::npos);
  // A GET never writes: the first visit shows the default profile but
  // does not persist it.
  EXPECT_FALSE(app->store().load_user("dlidsky").has_value());
}

TEST_F(AppFixture, MenuWithoutUserIsBadRequest) {
  EXPECT_EQ(get("/menu").status, 400);
}

TEST_F(AppFixture, LibraryListsModelsByCategory) {
  const Response r = get("/library?user=dl");
  EXPECT_EQ(r.status, 200);
  for (const char* expect :
       {"computation", "storage", "controller", "array_multiplier", "sram",
        "dcdc_converter"}) {
    EXPECT_NE(r.body.find(expect), std::string::npos) << expect;
  }
}

TEST_F(AppFixture, ModelFormShowsParameters) {
  const Response r = get("/model?user=dl&name=array_multiplier");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("bitwidthA"), std::string::npos);
  EXPECT_NE(r.body.find("253"), std::string::npos);  // EQ 20 doc text
}

TEST_F(AppFixture, ModelFormComputesOnSubmit) {
  // Figure 4's loop: set bit-widths, get the result excerpt instantly.
  const Response r = get(
      "/model?user=dl&name=array_multiplier&p_bitwidthA=16&p_bitwidthB=16"
      "&p_correlated=0&p_alpha=1&p_vdd=1.5&p_f=1000000");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Result"), std::string::npos);
  // C_T = 256 * 253 fF = 64.77 nF? no: 64.77 pF... check printed value.
  EXPECT_NE(r.body.find("64.77 pF"), std::string::npos);
  EXPECT_NE(r.body.find("Add to design"), std::string::npos);
}

TEST_F(AppFixture, UnknownModelIs400WithMessage) {
  const Response r = get("/model?user=dl&name=warp_core");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("warp_core"), std::string::npos);
}

TEST_F(AppFixture, AddToDesignThenPlayFlow) {
  // Add an SRAM row.
  Response r = post("/design/add",
                    {{"user", "dl"},
                     {"model", "sram"},
                     {"design", "MyChip"},
                     {"row", "Buffer"},
                     {"p_words", "2048"},
                     {"p_bits", "8"},
                     {"p_f", "125000"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Buffer"), std::string::npos);
  EXPECT_NE(r.body.find("TOTAL"), std::string::npos);

  // It persisted and is listed for the user.
  EXPECT_TRUE(app->store().has_design("MyChip"));
  const Response menu = get("/menu?user=dl");
  EXPECT_NE(menu.body.find("MyChip"), std::string::npos);

  // Add a second row and re-Play with a new supply voltage.
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "MyChip"},
                       {"row", "OutReg"},
                       {"p_bits", "6"},
                       {"p_f", "2000000"}});
  r = post("/design/play",
           {{"user", "dl"}, {"name", "MyChip"}, {"g_vdd", "3.0"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("recomputed"), std::string::npos);
  EXPECT_NE(r.body.find("OutReg"), std::string::npos);

  // The voltage change persisted into the stored design.
  const auto design = app->store().load_design("MyChip", app->registry());
  auto found = design->globals().lookup("vdd");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(std::get<double>(*found->binding), 3.0);
}

TEST_F(AppFixture, PlayAcceptsFormulasForGlobals) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "F"},
                       {"row", "R"},
                       {"p_f", "1000000"}});
  const Response r = post(
      "/design/play",
      {{"user", "dl"}, {"name", "F"}, {"g_derived", "vdd * 2"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("derived"), std::string::npos);
}

TEST_F(AppFixture, SetRowParameterRecomputes) {
  post("/design/add", {{"user", "dl"},
                       {"model", "sram"},
                       {"design", "S"},
                       {"row", "Mem"},
                       {"p_words", "1024"},
                       {"p_bits", "8"},
                       {"p_f", "1000000"}});
  const Response r = post("/design/setrow", {{"user", "dl"},
                                             {"name", "S"},
                                             {"row", "Mem"},
                                             {"param", "words"},
                                             {"value", "4096"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("words=4096"), std::string::npos);
}

TEST_F(AppFixture, EmptyDesignPageInvitesAdding) {
  const Response r = get("/design?user=dl&name=Fresh");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("No rows yet"), std::string::npos);
}

TEST_F(AppFixture, NewModelFormCreatesWorkingModel) {
  const Response created = post("/newmodel",
                                {{"user", "dl"},
                                 {"name", "my_dsp"},
                                 {"category", "computation"},
                                 {"doc", "homebrew DSP slice"},
                                 {"params", "bitwidth=16 taps=8"},
                                 {"c_fullswing", "bitwidth*taps*40e-15"},
                                 {"proprietary", "0"}});
  EXPECT_EQ(created.status, 200);
  EXPECT_NE(created.body.find("my_dsp"), std::string::npos);

  // The model is immediately usable through its form.
  const Response r = get(
      "/model?user=dl&name=my_dsp&p_bitwidth=16&p_taps=8");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Result"), std::string::npos);
  // And persisted for the next session.
  EXPECT_TRUE(app->store().load_model("my_dsp").has_value());
}

TEST_F(AppFixture, NewModelValidationErrorsSurface) {
  const Response r = post("/newmodel", {{"user", "dl"},
                                        {"name", "bad"},
                                        {"params", "k=1"},
                                        {"c_fullswing", "undeclared * 2"}});
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("undeclared"), std::string::npos);
}

TEST_F(AppFixture, DocPageShowsEquationProvenance) {
  const Response r = get("/doc?user=dl&name=rom_controller");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("EQ 10"), std::string::npos);
  EXPECT_NE(r.body.find("n_inputs"), std::string::npos);
}

TEST_F(AppFixture, MacroDrillDownRenderedInline) {
  // Store a design with a macro through the store API, then view it.
  auto& reg = app->registry();
  sheet::Design sub("SubBlock");
  sub.globals().set("f", 1e6);
  sub.add_row("reg", reg.find_shared("register"));
  sheet::Design top("TopChip");
  top.globals().set("vdd", 1.5);
  top.add_macro("Block", std::make_shared<const sheet::Design>(sub));
  app->store().save_design(top);

  const Response r = get("/design?user=dl&name=TopChip");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("macro drill-down"), std::string::npos);
  EXPECT_NE(r.body.find("reg"), std::string::npos);
}

TEST_F(AppFixture, NotFoundRoute) {
  EXPECT_EQ(get("/nonsense").status, 404);
}

TEST_F(AppFixture, ApiListsAndExportsModels) {
  post("/newmodel", {{"user", "dl"},
                     {"name", "shared_amp"},
                     {"category", "analog"},
                     {"params", "i=0.001"},
                     {"static_current", "i"}});
  post("/newmodel", {{"user", "dl"},
                     {"name", "secret_amp"},
                     {"category", "analog"},
                     {"params", "i=0.001"},
                     {"static_current", "i"},
                     {"proprietary", "1"}});
  const Response list = get("/api/models");
  EXPECT_NE(list.body.find("shared_amp"), std::string::npos);
  EXPECT_EQ(list.body.find("secret_amp"), std::string::npos);

  const Response exported = get("/api/model?name=shared_amp");
  EXPECT_EQ(exported.status, 200);
  EXPECT_NE(exported.body.find("model \"shared_amp\""), std::string::npos);

  // Proprietary models are withheld from the network.
  EXPECT_EQ(get("/api/model?name=secret_amp").status, 403);
  EXPECT_EQ(get("/api/model?name=ghost").status, 404);
}

TEST_F(AppFixture, ApiExportsDesigns) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "Exportable"},
                       {"row", "R"}});
  const Response list = get("/api/designs");
  EXPECT_NE(list.body.find("Exportable"), std::string::npos);
  const Response d = get("/api/design?name=Exportable");
  EXPECT_EQ(d.status, 200);
  EXPECT_NE(d.body.find("design \"Exportable\""), std::string::npos);
  EXPECT_EQ(get("/api/design?name=ghost").status, 404);
}

TEST_F(AppFixture, AgentPageShowsContextFlows) {
  const Response r = get("/agent?user=dl");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("sketch"), std::string::npos);
  EXPECT_NE(r.body.find("layout"), std::string::npos);
  EXPECT_NE(r.body.find("sram_quick -&gt; swing_refine -&gt; static_refine"),
            std::string::npos);
}

TEST_F(AppFixture, ToolBackedModelUsableThroughForm) {
  // The "paths to estimation tools in lieu of an equation" claim: the
  // agent-backed SRAM entry answers the same form as an equation model,
  // and raising the context refines the estimate downward.
  const Response sketch = get(
      "/model?user=dl&name=sram_toolflow&p_words=4096&p_bits=16"
      "&p_vswing=0.3&p_bitline_fraction=0.6&p_i_static=0&p_alpha=1"
      "&p_vdd=1.5&p_f=1000000&p_context=0");
  EXPECT_EQ(sketch.status, 200);
  EXPECT_NE(sketch.body.find("Result"), std::string::npos);
  const Response circuit = get(
      "/model?user=dl&name=sram_toolflow&p_words=4096&p_bits=16"
      "&p_vswing=0.3&p_bitline_fraction=0.6&p_i_static=0&p_alpha=1"
      "&p_vdd=1.5&p_f=1000000&p_context=1");
  EXPECT_EQ(circuit.status, 200);
  // Sketch (full swing) reports 597.0 uW, circuit (EQ 8) 310.4 uW.
  EXPECT_NE(sketch.body.find("597.0 uW"), std::string::npos);
  EXPECT_NE(circuit.body.find("310.4 uW"), std::string::npos);
}

TEST_F(AppFixture, HelpPageLinkedFromMenu) {
  const Response menu = get("/menu?user=dl");
  EXPECT_NE(menu.body.find("/help?user=dl"), std::string::npos);
  const Response help = get("/help?user=dl");
  EXPECT_EQ(help.status, 200);
  EXPECT_NE(help.body.find("PLAY"), std::string::npos);
  EXPECT_NE(help.body.find("rowpower"), std::string::npos);
  EXPECT_NE(help.body.find("/agent"), std::string::npos);
}

TEST_F(AppFixture, DesignCsvExport) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "CsvChip"},
                       {"row", "R"},
                       {"p_f", "1000000"}});
  const Response r = get("/design/csv?user=dl&name=CsvChip");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/csv");
  EXPECT_NE(r.body.find("row,model,power_w"), std::string::npos);
  EXPECT_NE(r.body.find("\"R\",\"register\""), std::string::npos);
  EXPECT_EQ(get("/design/csv?user=dl&name=Ghost").status, 404);
}

TEST_F(AppFixture, PasswordRestrictedAccess) {
  // "PowerPlay can provide password-restricted access."
  // Open access initially...
  EXPECT_EQ(get("/menu?user=secure").status, 200);
  // ...set a password (requires the current, absent one)...
  EXPECT_EQ(post("/setpw", {{"user", "secure"}, {"newpw", "s3cret"}}).status,
            200);
  // ...now the menu and mutating routes demand it.
  EXPECT_EQ(get("/menu?user=secure").status, 403);
  EXPECT_EQ(get("/menu?user=secure&pw=wrong").status, 403);
  EXPECT_EQ(get("/menu?user=secure&pw=s3cret").status, 200);
  EXPECT_EQ(post("/design/add", {{"user", "secure"},
                                 {"model", "register"},
                                 {"design", "Priv"},
                                 {"row", "R"}})
                .status,
            403);
  EXPECT_EQ(post("/design/add", {{"user", "secure"},
                                 {"pw", "s3cret"},
                                 {"model", "register"},
                                 {"design", "Priv"},
                                 {"row", "R"}})
                .status,
            200);
  // Other users are unaffected.
  EXPECT_EQ(get("/menu?user=open_user").status, 200);
  // Changing the password requires the old one; removing it reopens.
  EXPECT_EQ(post("/setpw", {{"user", "secure"}, {"newpw", "x"}}).status, 403);
  EXPECT_EQ(
      post("/setpw", {{"user", "secure"}, {"pw", "s3cret"}, {"newpw", ""}})
          .status,
      200);
  EXPECT_EQ(get("/menu?user=secure").status, 200);
}

TEST_F(AppFixture, PathTraversalRejected) {
  EXPECT_NE(get("/api/model?name=..%2F..%2Fetc%2Fpasswd").status, 200);
  EXPECT_NE(get("/design?user=dl&name=..%2Fx").status, 200);
}

// A name that cannot name a store entry is the client's error: 400,
// whichever page's store read rejects it.
TEST_F(AppFixture, BadStoreNamesAreBadRequests) {
  for (const char* target : {"/menu?user=..%2Fetc",
                             "/design?user=u&name=..%2Fx",
                             "/api/model?name=..%2Fx"}) {
    const Response r = get(target);
    EXPECT_EQ(r.status, 400) << target << "\n" << r.body;
  }
}

// --- Play on the compiled plan ---------------------------------------------

/// Same rows and globals under another name.
sheet::Design renamed(const sheet::Design& src, const std::string& name) {
  sheet::Design d(name, src.description());
  d.globals() = src.globals();
  d.rows() = src.rows();
  return d;
}

/// A design page less its "[message]" paragraph.
std::string without_message(std::string page) {
  const auto at = page.find("<p>[");
  if (at != std::string::npos) {
    page.erase(at, page.find("</p>\n", at) + 5 - at);
  }
  return page;
}

/// The 400 body an interpreter Play error of `d` turns into.
std::string play_error_reply(const sheet::Design& d) {
  try {
    (void)d.play();
  } catch (const expr::ExprError& e) {
    return std::string("bad request: ") + e.what() + "\n";
  }
  ADD_FAILURE() << d.name() << " played";
  return {};
}

/// A DC-DC converter fed from totalpower(), its own loss included: a
/// fixed point of several sweeps that diverges at 50% efficiency.
sheet::Design converter_board(const model::ModelRegistry& reg) {
  sheet::Design d("Converter_Board");
  d.globals().set("vdd", 6.0);
  d.globals().set("eff", 0.85);
  d.add_row("Load", reg.find_shared("datasheet_component"))
      .params.set("p_typical", 2.0);
  auto& conv = d.add_row("Conv", reg.find_shared("dcdc_converter"));
  conv.params.set_formula("efficiency", "eff");
  conv.params.set_formula("p_load", "totalpower()");
  return d;
}

// Every Play route runs the compiled plan.  The CSV export is the
// interpreter's bytes; the write routes render the design they saved,
// which reads exactly as the GET that follows.
TEST_F(AppFixture, CompiledPlayIsByteIdenticalToTheInterpreter) {
  struct Edit {
    sheet::Design design;
    std::string global;
    double global_value;
    std::string row;
    std::string param;
    double param_value;
  };
  const model::ModelRegistry& reg = app->registry();
  std::vector<Edit> edits;
  edits.push_back({studies::make_luminance_impl1(reg), "vdd", 1.6,
                   "Look Up Table", "bits", 7});
  edits.push_back({studies::make_luminance_impl2(reg), "pixel_rate", 3e6,
                   "Hold Register", "bits", 12});
  edits.push_back({studies::make_infopad(reg), "vdd", 5.5,
                   "Support Electronics", "p_typical", 0.6});
  edits.push_back({converter_board(reg), "eff", 0.9, "Load", "p_typical",
                   3.5});
  for (Edit& e : edits) {
    sheet::Design& d = e.design;
    const std::string name = d.name();
    SCOPED_TRACE(name);
    app->store().save_design(d);
    const Response csv = get("/design/csv?user=dl&name=" + name);
    ASSERT_EQ(csv.status, 200) << csv.body;
    EXPECT_EQ(csv.body, sheet::to_csv(d.play()));

    const Response played =
        post("/design/play",
             {{"user", "dl"},
              {"name", name},
              {"g_" + e.global, library::number_text(e.global_value)}});
    ASSERT_EQ(played.status, 200) << played.body;
    EXPECT_NE(played.body.find("<p>[recomputed]</p>"), std::string::npos);
    EXPECT_EQ(without_message(played.body),
              get("/design?user=dl&name=" + name).body);
    d.globals().set(e.global, e.global_value);
    EXPECT_EQ(get("/design/csv?user=dl&name=" + name).body,
              sheet::to_csv(d.play()));

    const Response set = post(
        "/design/setrow", {{"user", "dl"},
                           {"name", name},
                           {"row", e.row},
                           {"param", e.param},
                           {"value", library::number_text(e.param_value)}});
    ASSERT_EQ(set.status, 200) << set.body;
    EXPECT_EQ(without_message(set.body),
              get("/design?user=dl&name=" + name).body);
    d.find_row(e.row)->params.set(e.param, e.param_value);
    EXPECT_EQ(get("/design/csv?user=dl&name=" + name).body,
              sheet::to_csv(d.play()));
  }
}

// Error pages carry the interpreter's message, and a renamed copy —
// which shares the original's compiled plan — is named as itself.
TEST_F(AppFixture, PlayErrorsNameTheRightDesignAfterARename) {
  const model::ModelRegistry& reg = app->registry();
  app->store().save_design(converter_board(reg));
  sheet::Design local = converter_board(reg);

  const auto expect_error_pages = [&](const Response& reply,
                                      const std::string& copy_name) {
    EXPECT_EQ(reply.status, 400);
    EXPECT_EQ(reply.body, play_error_reply(local));
    const sheet::Design copy = renamed(local, copy_name);
    app->store().save_design(copy);
    const Response copied = get("/design?user=dl&name=" + copy_name);
    EXPECT_EQ(copied.status, 400);
    EXPECT_EQ(copied.body, play_error_reply(copy));
    EXPECT_NE(copied.body.find("'" + copy_name + "'"), std::string::npos)
        << copied.body;
    // The failed edit was not committed: the stored sheet still plays.
    EXPECT_EQ(get("/design/csv?user=dl&name=Converter_Board").body,
              sheet::to_csv(converter_board(reg).play()));
  };

  // A converter at 50% efficiency feeding itself never converges.
  local.globals().set("eff", 0.5);
  expect_error_pages(post("/design/play", {{"user", "dl"},
                                           {"name", "Converter_Board"},
                                           {"g_eff", "0.5"}}),
                     "Diverging_Copy");

  // A global formula calling an intermodel function.
  local.globals().set("eff", 0.85);
  local.globals().set_formula("budget", "totalpower()");
  expect_error_pages(post("/design/play", {{"user", "dl"},
                                           {"name", "Converter_Board"},
                                           {"g_eff", "0.85"},
                                           {"g_budget", "totalpower()"}}),
                     "Poisoned_Copy");

  // rowpower of a missing row.
  local = converter_board(reg);
  local.find_row("Conv")->params.set_formula("p_load", "rowpower(\"Nope\")");
  app->store().save_design(converter_board(reg));
  expect_error_pages(post("/design/setrow", {{"user", "dl"},
                                             {"name", "Converter_Board"},
                                             {"row", "Conv"},
                                             {"param", "p_load"},
                                             {"value", "rowpower(\"Nope\")"}}),
                     "Missing_Row_Copy");
}

/// A /healthz counter by name.
std::uint64_t healthz_counter(const std::string& body,
                              const std::string& name) {
  const auto at = body.find("\n" + name + ": ");
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos
             ? 0
             : std::stoull(body.substr(at + name.size() + 3));
}

// An edit whose Play fails answers 400 and commits nothing: the store
// journals no record, and the CSV export is the sheet from before it.
TEST_F(AppFixture, FailedPlayDoesNotCommitTheEdit) {
  const model::ModelRegistry& reg = app->registry();
  app->store().save_design(converter_board(reg));
  const std::string before = sheet::to_csv(converter_board(reg).play());
  const auto journal_appends = [this] {
    return healthz_counter(get("/healthz").body, "journal_appends");
  };
  ASSERT_EQ(get("/menu?user=dl").status, 200);  // the profile commit
  const std::uint64_t appends = journal_appends();
  const auto expect_uncommitted = [&](const Response& reply) {
    EXPECT_EQ(reply.status, 400) << reply.body;
    EXPECT_EQ(get("/design/csv?user=dl&name=Converter_Board").body, before);
    EXPECT_EQ(journal_appends(), appends);
  };

  // A converter at 50% efficiency feeding itself never converges.
  expect_uncommitted(post("/design/play", {{"user", "dl"},
                                           {"name", "Converter_Board"},
                                           {"g_eff", "0.5"}}));
  // A global formula calling an intermodel function.
  expect_uncommitted(post("/design/play", {{"user", "dl"},
                                           {"name", "Converter_Board"},
                                           {"g_budget", "totalpower()"}}));
  // rowpower of a missing row.
  expect_uncommitted(post("/design/setrow", {{"user", "dl"},
                                             {"name", "Converter_Board"},
                                             {"row", "Conv"},
                                             {"param", "p_load"},
                                             {"value", "rowpower(\"Nope\")"}}));
  // A new row whose efficiency is outside the model's range.
  expect_uncommitted(post("/design/add", {{"user", "dl"},
                                          {"model", "dcdc_converter"},
                                          {"design", "Converter_Board"},
                                          {"row", "Bad"},
                                          {"p_efficiency", "2"}}));

  // A good edit still commits.
  ASSERT_EQ(post("/design/play", {{"user", "dl"},
                                  {"name", "Converter_Board"},
                                  {"g_eff", "0.9"}})
                .status,
            200);
  EXPECT_GT(journal_appends(), appends);
  EXPECT_NE(get("/design/csv?user=dl&name=Converter_Board").body, before);
}

// /healthz shows the plan cache every Play probes: a first Play of a
// design compiles (one miss), a re-Play reuses the plan (one hit).
TEST_F(AppFixture, HealthzCountsPlanCacheHitsAndMisses) {
  app->store().save_design(studies::make_luminance_impl2(app->registry()));
  const auto play = [this] {
    return post("/design/play", {{"user", "dl"}, {"name", "Luminance_2"}})
        .status;
  };
  std::string health = get("/healthz").body;
  EXPECT_EQ(healthz_counter(health, "plan_cache_misses"), 0u);
  EXPECT_EQ(healthz_counter(health, "plan_cache_hits"), 0u);
  EXPECT_NE(health.find("\nplan_cache_size: 0/256\n"), std::string::npos)
      << health;
  ASSERT_EQ(play(), 200);
  health = get("/healthz").body;
  EXPECT_EQ(healthz_counter(health, "plan_cache_misses"), 1u);
  EXPECT_EQ(healthz_counter(health, "plan_cache_hits"), 0u);
  ASSERT_EQ(play(), 200);
  health = get("/healthz").body;
  EXPECT_EQ(healthz_counter(health, "plan_cache_misses"), 1u);
  EXPECT_EQ(healthz_counter(health, "plan_cache_hits"), 1u);
  EXPECT_EQ(healthz_counter(health, "plan_cache_evictions"), 0u);
  EXPECT_NE(health.find("\nplan_cache_size: 1/256\n"), std::string::npos)
      << health;
  // The Play memo lines stay, and no production Play touches the memo.
  EXPECT_EQ(healthz_counter(health, "cache_hits"), 0u);
  EXPECT_EQ(healthz_counter(health, "cache_misses"), 0u);
}

// Renamed copies share one compiled plan: 300 Luminance_2 copies
// leave one plan in the engine's cache.
TEST_F(AppFixture, RenamedCopiesShareOnePlan) {
  const sheet::Design lum2 = studies::make_luminance_impl2(app->registry());
  for (int i = 0; i < 300; ++i) {
    const std::string name = "Lum2_copy_" + std::to_string(i);
    app->store().save_design(renamed(lum2, name));
    const Response page = get("/design?user=dl&name=" + name);
    ASSERT_EQ(page.status, 200) << page.body;
    ASSERT_NE(page.body.find(name + " summary"), std::string::npos);
  }
  const engine::CacheStats plans = app->engine().plans().stats();
  EXPECT_EQ(plans.size, 1u);
  EXPECT_EQ(plans.misses, 1u);
  EXPECT_EQ(plans.hits, 299u);
}

// A model redefined through POST /newmodel is a new model to every
// evaluation path: sweep jobs and Play answer with the new equations.
TEST_F(AppFixture, RedefinedModelReachesSweepJobsAndPlay) {
  const auto define = [this](const std::string& watts) {
    return post("/newmodel", {{"user", "dl"},
                              {"name", "brick"},
                              {"category", "system"},
                              {"power_direct", watts}})
        .status;
  };
  const auto job_csv = [this] {
    const Response submit =
        post("/design/sweep", {{"user", "dl"},
                               {"name", "Bricks"},
                               {"x_param", "vdd"},
                               {"x_from", "1"},
                               {"x_to", "3"},
                               {"x_points", "5"}});
    EXPECT_EQ(submit.status, 200) << submit.body;
    const std::string id = submit.body.substr(4, submit.body.find('\n') - 4);
    for (int i = 0; i < 500; ++i) {
      if (get("/job?id=" + id).body.find("status: done") !=
          std::string::npos) {
        return get("/job?id=" + id + "&format=csv").body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return std::string();
  };
  const auto serial_csv = [this] {
    const auto d = app->store().load_design("Bricks", app->registry());
    return sheet::sweep_csv(sheet::to_columns(
        "vdd", sheet::sweep_global(*d, "vdd", sheet::linspace(1, 3, 5))));
  };

  ASSERT_EQ(define("1"), 200);
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "brick"},
                                 {"design", "Bricks"},
                                 {"row", "B"}})
                .status,
            200);
  EXPECT_EQ(job_csv(), serial_csv());

  ASSERT_EQ(define("2"), 200);
  const std::string redefined = serial_csv();
  EXPECT_NE(redefined.find(",2,"), std::string::npos) << redefined;
  EXPECT_EQ(job_csv(), redefined);

  const Response played =
      post("/design/play", {{"user", "dl"}, {"name", "Bricks"}});
  ASSERT_EQ(played.status, 200) << played.body;
  EXPECT_NE(played.body.find(units::format_si(2.0, "W")), std::string::npos)
      << played.body;
  const auto d = app->store().load_design("Bricks", app->registry());
  EXPECT_EQ(get("/design/csv?user=dl&name=Bricks").body,
            sheet::to_csv(d->play()));
}

// A GET never writes durable state: every GET route, asked by a user
// the store has never seen and with the error variants of its
// parameters, leaves the journal and the library revision untouched.
TEST_F(AppFixture, GetsNeverWriteEvenForANewUser) {
  app->store().save_design(converter_board(app->registry()));
  library::UserProfile locked = library::default_profile("locked");
  locked.set_password("s3cret");
  app->store().save_user(locked);
  const auto appends = [this] {
    return healthz_counter(get("/healthz").body, "journal_appends");
  };
  const std::uint64_t before = appends();
  const std::uint64_t revision = app->store().revision();

  for (const char* target : {
           "/",
           "/healthz",
           "/menu?user=newcomer",
           "/menu?user=newcomer&pw=guess",
           "/menu",
           "/menu?user=..%2Fetc",
           "/menu?user=locked",
           "/menu?user=locked&pw=s3cret",
           "/library?user=newcomer",
           "/library",
           "/model?user=newcomer&name=sram",
           "/model?user=newcomer&name=sram&p_words=2048",
           "/model?user=newcomer&name=sram&p_words=lots",
           "/model?user=newcomer&name=warp_core",
           "/doc?user=newcomer&name=sram",
           "/doc?user=newcomer&name=warp_core",
           "/agent?user=newcomer",
           "/agent",
           "/help?user=newcomer",
           "/design?user=newcomer&name=Converter_Board",
           "/design?user=newcomer&name=Nope",
           "/design?user=newcomer&name=..%2Fx",
           "/design/csv?user=newcomer&name=Converter_Board",
           "/design/csv?name=Nope",
           "/newmodel?user=newcomer",
           "/newmodel",
           "/job?id=1",
           "/job?id=x",
           "/job?id=1&format=table",
           "/jobs?user=newcomer",
           "/jobs?user=newcomer&format=json",
           "/api/models",
           "/api/model?name=Nope",
           "/api/model?name=..%2Fx",
           "/api/designs",
           "/api/design?name=Converter_Board",
           "/api/design?name=Nope",
           "/repl/snapshot",
           "/repl/journal?epoch=1&after=0",
           "/repl/journal",
           "/fed/models",
           "/fed/model?name=x",
           "/fed/hosts",
       }) {
    EXPECT_NE(get(target).status, 405) << target;
    EXPECT_EQ(app->store().revision(), revision) << target;
  }
  EXPECT_EQ(appends(), before);
  EXPECT_FALSE(app->store().load_user("newcomer").has_value());
}

// A write route asked with GET answers 405 naming POST, and commits
// nothing even when its parameters would make a valid edit.
TEST_F(AppFixture, WriteRoutesRefuseGet) {
  const sheet::Design board = converter_board(app->registry());
  app->store().save_design(board);
  const std::string csv = sheet::to_csv(board.play());
  const auto appends = [this] {
    return healthz_counter(get("/healthz").body, "journal_appends");
  };
  const std::uint64_t before = appends();
  const std::uint64_t revision = app->store().revision();

  for (const char* target : {
           "/design/play?user=dl&name=Converter_Board&g_eff=0.9",
           "/design/setrow?user=dl&name=Converter_Board&row=Load"
           "&param=p_typical&value=3",
           "/design/add?user=dl&model=sram&design=Fresh&row=R",
           "/setpw?user=dl&newpw=x",
           "/job/cancel?user=dl&id=1",
       }) {
    const Response r = get(target);
    EXPECT_EQ(r.status, 405) << target;
    EXPECT_EQ(r.headers.count("allow") ? r.headers.at("allow") : "", "POST")
        << target;
  }
  EXPECT_EQ(appends(), before);
  EXPECT_EQ(app->store().revision(), revision);
  EXPECT_FALSE(app->store().has_design("Fresh"));
  EXPECT_FALSE(app->store().load_user("dl").has_value());
  EXPECT_EQ(get("/design/csv?name=Converter_Board").body, csv);
}

// Only a write that succeeds saves a first-time user's profile: failed
// edits from a user with no profile commit nothing at all.
TEST_F(AppFixture, FailedEditFromANewUserCommitsNothing) {
  app->store().save_design(converter_board(app->registry()));
  const auto appends = [this] {
    return healthz_counter(get("/healthz").body, "journal_appends");
  };
  const std::uint64_t before = appends();

  EXPECT_EQ(post("/design/play", {{"user", "stranger"},
                                  {"name", "Converter_Board"},
                                  {"g_eff", "0.5"}})
                .status,
            400);
  EXPECT_EQ(post("/design/add", {{"user", "stranger"},
                                 {"model", "dcdc_converter"},
                                 {"design", "Converter_Board"},
                                 {"row", "Bad"},
                                 {"p_efficiency", "2"}})
                .status,
            400);
  EXPECT_EQ(appends(), before);
  EXPECT_FALSE(app->store().load_user("stranger").has_value());

  // A successful add lists the design on the profile it saves.
  ASSERT_EQ(post("/design/add", {{"user", "stranger"},
                                 {"model", "register"},
                                 {"design", "Mine"},
                                 {"row", "R"}})
                .status,
            200);
  const auto profile = app->store().load_user("stranger");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->designs, std::vector<std::string>{"Mine"});
}

/// The (route, methods) rows of every table in docs/WEB_API.md whose
/// second column is a method list such as "GET" or "GET/POST".
std::map<std::string, std::set<std::string>> documented_routes() {
  std::ifstream in(std::string(POWERPLAY_DOCS_DIR) + "/WEB_API.md");
  EXPECT_TRUE(in.good());
  std::map<std::string, std::set<std::string>> routes;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `/", 0) != 0) continue;
    const std::size_t path_end = line.find('`', 3);
    const std::size_t cell = line.find('|', path_end);
    const std::size_t cell_end = line.find('|', cell + 1);
    std::string methods = line.substr(cell + 1, cell_end - cell - 1);
    std::erase(methods, ' ');
    std::istringstream split(methods);
    std::string method;
    while (std::getline(split, method, '/')) {
      if (method != "GET" && method != "POST") break;
      routes[line.substr(3, path_end - 3)].insert(method);
    }
  }
  return routes;
}

// Methods are enforced: every (route, method) pair docs/WEB_API.md
// documents is routed, HEAD wherever GET is, and every other method on
// a documented route answers 405.
TEST_F(AppFixture, DocumentedRoutesAndMethodsAreEnforced) {
  const auto routes = documented_routes();
  ASSERT_GE(routes.size(), 30u);
  for (const auto& [path, methods] : routes) {
    for (const char* method : {"GET", "HEAD", "POST", "PUT", "DELETE"}) {
      Request request;
      request.method = method;
      request.target = path;
      const Response r = http_request(server->port(), request);
      const bool routed =
          methods.contains(method) ||
          (std::string(method) == "HEAD" && methods.contains("GET"));
      if (method == std::string("HEAD")) EXPECT_TRUE(r.body.empty()) << path;
      if (routed) {
        EXPECT_NE(r.status, 404) << method << " " << path;
        EXPECT_NE(r.status, 405) << method << " " << path;
      } else {
        EXPECT_EQ(r.status, 405) << method << " " << path;
      }
    }
  }
}

// HEAD answers the GET's status and headers, Content-Length included,
// with no body bytes on the wire: the keep-alive connection frames the
// next reply right after it.
TEST_F(AppFixture, HeadAnswersTheGetWithoutTheBody) {
  app->store().save_design(studies::make_luminance_impl2(app->registry()));
  HttpConnection conn(server->port());
  for (const char* target : {"/design?user=dl&name=Luminance_2",
                             "/api/designs", "/menu?user=dl",
                             "/design?user=dl&name=..%2Fx", "/nonsense"}) {
    const Response got = get(target);
    Request head;
    head.method = "HEAD";
    head.target = target;
    const Response reply = conn.roundtrip(head);
    EXPECT_EQ(reply.status, got.status) << target;
    EXPECT_TRUE(reply.body.empty()) << target;
    EXPECT_EQ(reply.headers.at("content-length"),
              std::to_string(got.body.size()))
        << target;
    EXPECT_EQ(reply.content_type, got.content_type) << target;
    if (got.headers.contains("etag")) {
      EXPECT_EQ(reply.headers.at("etag"), got.headers.at("etag")) << target;
    }
    const Response next = conn.get(target);
    EXPECT_EQ(next.status, got.status) << target;
    EXPECT_EQ(next.body, got.body) << target;
  }
  // A POST-only route takes no HEAD; a GET route's Allow lists it.
  Request head;
  head.method = "HEAD";
  head.target = "/design/play";
  EXPECT_EQ(conn.roundtrip(head).status, 405);
  Request put;
  put.method = "PUT";
  put.target = "/newmodel";
  EXPECT_EQ(conn.roundtrip(put).headers.at("allow"), "GET, HEAD, POST");
}

// --- Response cache: a page stays cached until an entry it read moves ------

/// One GET and whether the response cache served it.
struct Served {
  Response response;
  bool hit = false;
};

/// GET `target` through `get` and judge hit or miss by the /healthz
/// counters around it (/healthz itself is never cached).
template <typename Get>
Served served(const Get& get, const std::string& target) {
  const auto counts = [&] {
    const std::string body = get("/healthz").body;
    return std::pair(healthz_counter(body, "response_cache_hits"),
                     healthz_counter(body, "response_cache_misses"));
  };
  const auto [hits, misses] = counts();
  Served out{get(target)};
  const auto [hits_after, misses_after] = counts();
  EXPECT_EQ(hits_after + misses_after, hits + misses + 1) << target;
  out.hit = hits_after == hits + 1;
  return out;
}

struct CacheFixture : AppFixture {
  [[nodiscard]] Served served(const std::string& target) const {
    return web::served([this](const std::string& t) { return get(t); },
                       target);
  }
  [[nodiscard]] bool hit(const std::string& target) const {
    return served(target).hit;
  }
};

/// A two-level design: "TopChip" with the macro "SubBlock" of `rows`
/// registers.
sheet::Design top_chip(const model::ModelRegistry& reg, int rows) {
  sheet::Design sub("SubBlock");
  for (int i = 0; i < rows; ++i) {
    sub.add_row("reg" + std::to_string(i), reg.find_shared("register"));
  }
  sheet::Design top("TopChip");
  top.add_macro("Block", std::make_shared<const sheet::Design>(sub));
  return top;
}

model::UserModelDefinition amp(const std::string& name) {
  model::UserModelDefinition def;
  def.name = name;
  def.category = model::Category::kAnalog;
  def.params = {{"i", "bias current", 1e-3, "A"}};
  def.static_current = "i";
  return def;
}

// A save that changes only a design's description re-renders both
// pages that show it: the description is part of what they read.
TEST_F(CacheFixture, DescriptionOnlySaveIsServedFresh) {
  sheet::Design lum = studies::make_luminance_impl2(app->registry());
  lum.set_description("first-description");
  app->store().save_design(lum);
  const std::vector<std::string> pages = {"/design?user=dl&name=Luminance_2",
                                          "/api/design?name=Luminance_2"};
  for (const std::string& page : pages) {
    EXPECT_NE(get(page).body.find("first-description"), std::string::npos);
    EXPECT_TRUE(hit(page)) << page;
  }
  lum.set_description("second-description");
  app->store().save_design(lum);
  for (const std::string& page : pages) {
    const Served s = served(page);
    EXPECT_FALSE(s.hit) << page;
    EXPECT_NE(s.response.body.find("second-description"), std::string::npos)
        << page;
    EXPECT_EQ(s.response.body.find("first-description"), std::string::npos)
        << page;
  }
}

// A commit to another design, by another user, leaves every page that
// did not read it a hit; those hits count as revalidations.
TEST_F(CacheFixture, UnrelatedCommitKeepsPagesCached) {
  app->store().save_design(studies::make_luminance_impl2(app->registry()));
  library::UserProfile rd = library::default_profile("rd");
  rd.designs = {"Luminance_2"};
  app->store().save_user(rd);
  const std::vector<std::string> pages = {
      "/menu?user=rd",
      "/library?user=rd",
      "/model?user=rd&name=sram",
      "/design?user=rd&name=Luminance_2",
      "/design/csv?name=Luminance_2",
      "/api/design?name=Luminance_2"};
  for (const std::string& page : pages) EXPECT_FALSE(hit(page)) << page;
  for (const std::string& page : pages) EXPECT_TRUE(hit(page)) << page;
  const auto revalidations = [this] {
    return healthz_counter(get("/healthz").body,
                           "response_cache_revalidations");
  };
  EXPECT_EQ(revalidations(), 0u);
  ASSERT_EQ(post("/design/add", {{"user", "other"},
                                 {"model", "register"},
                                 {"design", "Other"},
                                 {"row", "R"}})
                .status,
            200);
  for (const std::string& page : pages) EXPECT_TRUE(hit(page)) << page;
  EXPECT_EQ(revalidations(), pages.size());
}

// A commit to a macro re-renders every page of a design that uses it.
TEST_F(CacheFixture, MacroCommitRerendersItsUsers) {
  const model::ModelRegistry& reg = app->registry();
  app->store().save_design(top_chip(reg, 1));
  const std::vector<std::string> pages = {"/design?user=dl&name=TopChip",
                                          "/design/csv?name=TopChip",
                                          "/api/design?name=TopChip"};
  for (const std::string& page : pages) EXPECT_FALSE(hit(page)) << page;
  for (const std::string& page : pages) EXPECT_TRUE(hit(page)) << page;
  // Only the macro changes: TopChip's own entry keeps its stamp.
  const auto sub = top_chip(reg, 2).rows().front().macro;
  app->store().save_design(*sub);
  for (const std::string& page : pages) EXPECT_FALSE(hit(page)) << page;
  EXPECT_NE(get(pages[0]).body.find("reg1"), std::string::npos);
  for (const std::string& page : pages) EXPECT_TRUE(hit(page)) << page;
}

// A page that found no design is cached as such, and re-renders once
// the design exists.
TEST_F(CacheFixture, AbsentDesignPageRerendersOnceCreated) {
  const std::string page = "/design?user=dl&name=Fresh";
  EXPECT_FALSE(hit(page));
  const Served empty = served(page);
  EXPECT_TRUE(empty.hit);
  EXPECT_NE(empty.response.body.find("No rows yet"), std::string::npos);
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "register"},
                                 {"design", "Fresh"},
                                 {"row", "R"}})
                .status,
            200);
  const Served created = served(page);
  EXPECT_FALSE(created.hit);
  EXPECT_NE(created.response.body.find("TOTAL"), std::string::npos);
  EXPECT_TRUE(hit(page));
}

// The listings follow adds and removals; re-saving a listed entry
// leaves the listing cached.
TEST_F(CacheFixture, ApiListingsFollowAddsAndRemoves) {
  library::LibraryStore& store = app->store();
  const sheet::Design lum = studies::make_luminance_impl2(app->registry());
  store.save_design(lum);
  EXPECT_EQ(served("/api/designs").response.body, "Luminance_2\n");
  EXPECT_TRUE(hit("/api/designs"));
  store.save_design(renamed(lum, "Luminance_3"));
  Served s = served("/api/designs");
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.response.body, "Luminance_2\nLuminance_3\n");
  store.save_design(lum);
  EXPECT_TRUE(hit("/api/designs"));
  ASSERT_TRUE(store.remove_design("Luminance_3"));
  s = served("/api/designs");
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.response.body, "Luminance_2\n");

  EXPECT_EQ(served("/api/models").response.body, "");
  EXPECT_TRUE(hit("/api/models"));
  store.save_model(amp("amp"));
  s = served("/api/models");
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.response.body, "amp\n");
  // Turning the model proprietary changes no name, but the page read
  // the entry to filter it.
  store.save_model(amp("amp"), /*proprietary=*/true);
  s = served("/api/models");
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.response.body, "");
  ASSERT_TRUE(store.remove_model("amp"));
  EXPECT_FALSE(hit("/api/models"));
  EXPECT_TRUE(hit("/api/models"));
}

// /setpw rewrites one profile: that user's menu re-renders (and now
// asks for the password); another user's menu stays a hit.
TEST_F(CacheFixture, SetPasswordInvalidatesThatUsersMenu) {
  for (const char* page : {"/menu?user=pw", "/menu?user=bystander"}) {
    EXPECT_FALSE(hit(page)) << page;
    EXPECT_TRUE(hit(page)) << page;
  }
  ASSERT_EQ(post("/setpw", {{"user", "pw"}, {"newpw", "s3cret"}}).status,
            200);
  const Served locked = served("/menu?user=pw");
  EXPECT_FALSE(locked.hit);
  EXPECT_EQ(locked.response.status, 403);
  EXPECT_TRUE(hit("/menu?user=bystander"));
}

// On a follower, one applied record re-renders exactly the pages that
// read its entry.
TEST_F(CacheFixture, ReplicatedApplyInvalidatesOnlyItsReaders) {
  library::LibraryStore& primary = app->store();
  const model::ModelRegistry& reg = app->registry();
  const sheet::Design lum = studies::make_luminance_impl2(reg);
  primary.save_design(lum);
  primary.save_design(renamed(lum, "Luminance_3"));
  PowerPlayApp follower{library::LibraryStore(dir / "follower")};
  follower.store().install_replication_snapshot(
      primary.export_replication_snapshot());
  const auto follower_get = [&follower](const std::string& target) {
    Request request;
    request.target = target;
    return follower.handle(request);
  };
  const std::vector<std::string> readers = {
      "/design?user=f&name=Luminance_2", "/design/csv?name=Luminance_2",
      "/api/design?name=Luminance_2"};
  const std::vector<std::string> others = {
      "/design?user=f&name=Luminance_3", "/api/designs", "/menu?user=f",
      "/library?user=f"};
  for (const auto* pages : {&readers, &others}) {
    for (const std::string& page : *pages) {
      EXPECT_FALSE(web::served(follower_get, page).hit) << page;
      EXPECT_TRUE(web::served(follower_get, page).hit) << page;
    }
  }

  sheet::Design edited = lum;
  edited.globals().set("vdd", 2.5);
  primary.save_design(edited);
  const library::ReplCursor cursor = follower.store().replication_cursor();
  const auto feed =
      primary.read_replication_feed(cursor.epoch, cursor.seq, 1u << 20);
  ASSERT_EQ(feed.records.size(), 1u);
  ASSERT_EQ(follower.store().apply_replicated(feed.records.front()),
            library::LibraryStore::ReplApply::kApplied);

  for (const std::string& page : readers) {
    EXPECT_FALSE(web::served(follower_get, page).hit) << page;
  }
  EXPECT_EQ(follower_get("/design/csv?name=Luminance_2").body,
            sheet::to_csv(edited.play()));
  for (const std::string& page : others) {
    EXPECT_TRUE(web::served(follower_get, page).hit) << page;
  }
}

// An edit of a user's InfoPad copy commits its own design only: the
// shared macros it loaded are held by the store unchanged, so their
// entries keep their stamps and the base design's page stays cached.
TEST_F(CacheFixture, InfoPadCopyEditCommitsOneRecord) {
  const sheet::Design pad = studies::make_infopad(app->registry());
  app->store().save_design(pad);
  app->store().save_design(renamed(pad, "Pad_ed"));
  ASSERT_EQ(get("/menu?user=ed").status, 200);
  const std::string base = "/design?user=ed&name=InfoPad_System";
  EXPECT_FALSE(hit(base));
  EXPECT_TRUE(hit(base));
  const auto appends = [this] {
    return healthz_counter(get("/healthz").body, "journal_appends");
  };
  for (const char* vdd : {"1.2", "1.3"}) {
    const std::uint64_t before = appends();
    ASSERT_EQ(post("/design/play",
                   {{"user", "ed"}, {"name", "Pad_ed"}, {"g_vdd", vdd}})
                  .status,
              200);
    EXPECT_EQ(appends(), before + 1) << vdd;
    EXPECT_TRUE(hit(base)) << vdd;
  }
}

/// Ship every record the primary holds past the follower's cursor.
void replicate(library::LibraryStore& primary, library::LibraryStore& follower) {
  const library::ReplCursor cursor = follower.replication_cursor();
  const auto feed =
      primary.read_replication_feed(cursor.epoch, cursor.seq, 1u << 20);
  for (const library::JournalRecord& record : feed.records) {
    ASSERT_EQ(follower.apply_replicated(record),
              library::LibraryStore::ReplApply::kApplied);
  }
}

// A follower's registry learns user models that arrive by replication,
// new or redefined, without a restart; a held sub-design that uses a
// redefined model is parsed again against it.
TEST_F(CacheFixture, FollowerRegistryLearnsReplicatedModels) {
  library::LibraryStore& primary = app->store();
  PowerPlayApp follower{library::LibraryStore(dir / "follower")};
  follower.store().install_replication_snapshot(
      primary.export_replication_snapshot());
  const auto follower_get = [&follower](const std::string& target) {
    Request request;
    request.target = target;
    return follower.handle(request);
  };
  const std::string model_page = "/model?user=f&name=amp";
  EXPECT_EQ(follower_get(model_page).status, 400);

  const auto define_amp = [this](const std::string& current) {
    return post("/newmodel", {{"user", "dl"},
                              {"name", "amp"},
                              {"category", "analog"},
                              {"doc", "bias amplifier"},
                              {"params", "i=1e-3"},
                              {"static_current", current}})
        .status;
  };
  ASSERT_EQ(define_amp("i"), 200);
  sheet::Design block("Amp_Block");
  block.globals().set("vdd", 1.0);
  block.add_row("A", app->registry().find_shared("amp"));
  sheet::Design top("Amp_Top");
  top.add_macro("Block", std::make_shared<const sheet::Design>(block));
  primary.save_design(top);
  replicate(primary, follower.store());
  EXPECT_EQ(follower_get(model_page).status, 200);
  const std::string csv = "/design/csv?name=Amp_Top";
  EXPECT_EQ(follower_get(csv).body, get(csv).body);

  ASSERT_EQ(define_amp("2*i"), 200);
  const std::string redefined = get(csv).body;
  EXPECT_NE(redefined, follower_get(csv).body);
  replicate(primary, follower.store());
  EXPECT_EQ(follower_get(csv).body, redefined);
  EXPECT_EQ(follower_get(model_page).body, get(model_page).body);
}

}  // namespace
}  // namespace powerplay::web
