// Tests for the command-line REPL, driven through string streams.
#include "cli/repl.hpp"

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/berkeley_library.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "studies/vq.hpp"

namespace powerplay::cli {
namespace {

namespace fs = std::filesystem;

struct CliFixture : ::testing::Test {
  fs::path dir;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_cli_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  /// Run a script; returns (failures, output).
  std::pair<int, std::string> run(const std::string& script) {
    std::istringstream in(script);
    std::ostringstream out;
    ReplOptions opt;
    opt.echo_prompt = false;
    const int failures =
        run_repl(in, out, library::LibraryStore(dir), opt);
    return {failures, out.str()};
  }
};

TEST_F(CliFixture, HelpAndQuit) {
  const auto [failures, out] = run("help\nquit\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
  EXPECT_NE(out.find("sweep"), std::string::npos);
}

TEST_F(CliFixture, LibraryListingAndCategoryFilter) {
  const auto [failures, out] = run("library storage\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("sram"), std::string::npos);
  EXPECT_EQ(out.find("array_multiplier"), std::string::npos);
}

TEST_F(CliFixture, DocShowsParameters) {
  const auto [failures, out] = run("doc array_multiplier\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("EQ 20"), std::string::npos);
  EXPECT_NE(out.find("bitwidthA"), std::string::npos);
}

TEST_F(CliFixture, BuildPlaySaveReopen) {
  const auto [failures, out] = run(
      "new my_chip\n"
      "global vdd 1.5\n"
      "global pixel_rate 2e6\n"
      "add LUT sram\n"
      "set LUT words 4096\n"
      "set LUT bits 6\n"
      "set LUT f pixel_rate\n"
      "play\n"
      "save\n"
      "quit\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("my_chip summary"), std::string::npos);
  EXPECT_NE(out.find("692.2 uW"), std::string::npos);  // the Fig-2 LUT
  EXPECT_NE(out.find("saved 'my_chip'"), std::string::npos);

  // Reopen in a new session: the sheet persisted with its formula.
  const auto [failures2, out2] = run("open my_chip\nplay\nquit\n");
  EXPECT_EQ(failures2, 0);
  EXPECT_NE(out2.find("692.2 uW"), std::string::npos);
}

TEST_F(CliFixture, FormulasWithSpacesBindAsExpressions) {
  const auto [failures, out] = run(
      "new f\n"
      "global vdd 1.5\n"
      "global base 1e6\n"
      "add R register\n"
      "set R f base * 2 + 1000\n"
      "play\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("f=2.001e+06"), std::string::npos);
}

TEST_F(CliFixture, SweepPrintsSeries) {
  const auto [failures, out] = run(
      "new s\n"
      "global vdd 1.0\n"
      "global f 1e6\n"
      "add A ripple_adder\n"
      "sweep vdd 1 3 3\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("vdd\ttotal power"), std::string::npos);
  // Quadratic: 1 V -> x, 3 V -> 9x.
  EXPECT_NE(out.find("528.0 nW"), std::string::npos);
  EXPECT_NE(out.find("4.752 uW"), std::string::npos);
}

TEST_F(CliFixture, MacroComposition) {
  const auto [failures, out] = run(
      "new leaf\n"
      "global f 1e6\n"
      "add R register\n"
      "save\n"
      "new top\n"
      "global vdd 2.0\n"
      "addmacro Inner leaf\n"
      "play\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("macro:leaf"), std::string::npos);
}

TEST_F(CliFixture, ErrorsAreReportedAndSessionContinues) {
  const auto [failures, out] = run(
      "play\n"                 // no open design
      "new d\n"
      "add R no_such_model\n"  // unknown model
      "set Ghost f 1\n"        // unknown row
      "bogus\n"                // unknown command
      "global vdd 1.5\n"
      "add R register\n"
      "global f 1e6\n"
      "play\n");               // still works at the end
  EXPECT_EQ(failures, 4);
  EXPECT_NE(out.find("no open design"), std::string::npos);
  EXPECT_NE(out.find("unknown model"), std::string::npos);
  EXPECT_NE(out.find("no row named"), std::string::npos);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(out.find("d summary"), std::string::npos);
}

TEST_F(CliFixture, CommentsAndBlankLinesIgnored) {
  const auto [failures, out] = run("# a comment\n\n  \nhelp\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST_F(CliFixture, EnableDisableToggleRows) {
  const auto [failures, out] = run(
      "new t\n"
      "global vdd 1.5\n"
      "global f 1e6\n"
      "add A register\n"
      "add B register\n"
      "disable B\n"
      "play\n"
      "enable B\n"
      "play\n");
  EXPECT_EQ(failures, 0);
  // First play shows only A; second shows both.
  const auto first = out.find("t summary");
  const auto second = out.find("t summary", first + 1);
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(out.substr(first, second - first).find("| B "),
            std::string::npos);
  EXPECT_NE(out.substr(second).find("| B "), std::string::npos);
}

TEST_F(CliFixture, CsvOutput) {
  const auto [failures, out] = run(
      "new c\nglobal vdd 1.5\nglobal f 1e6\nadd A comparator\ncsv\n");
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.find("row,model,power_w"), std::string::npos);
  EXPECT_NE(out.find("\"A\",\"comparator\""), std::string::npos);
}

// The point count is checked as an integer in [1, 256] on the parsed
// double, before any cast or allocation (the web form's rule).
TEST_F(CliFixture, SweepPointCountMustBeAnIntegerInRange) {
  const std::vector<std::string> bad = {"nan", "inf", "0",
                                        "2.5", "257", "1e300"};
  std::string script =
      "new s\nglobal vdd 1.0\nglobal f 1e6\nadd A register\n";
  for (const std::string& points : bad) {
    script += "sweep vdd 1 3 " + points + "\n";
  }
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, static_cast<int>(bad.size()));
  const std::string error = "error: points must be an integer in [1, 256]\n";
  std::size_t errors = 0;
  for (std::size_t at = out.find(error); at != std::string::npos;
       at = out.find(error, at + 1)) {
    ++errors;
  }
  EXPECT_EQ(errors, bad.size()) << out;
  EXPECT_EQ(out.find("vdd\ttotal power"), std::string::npos) << out;
}

// play, csv and sweep run on the compiled plan; their output is the
// interpreter's, byte for byte.
TEST_F(CliFixture, PlayCsvAndSweepMatchTheInterpreter) {
  model::ModelRegistry lib;
  models::add_berkeley_models(lib);
  const sheet::Design d = studies::make_luminance_impl2(lib);
  library::LibraryStore(dir).save_design(d);
  const auto [failures, out] =
      run("open Luminance_2\nplay\ncsv\nsweep vdd 1 3 5\n");
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(out, sheet::to_table(d.play()) + sheet::to_csv(d.play()) +
                     sheet::sweep_table(sheet::to_columns(
                         "vdd", sheet::sweep_global(
                                    d, "vdd", sheet::linspace(1, 3, 5)))));
}

}  // namespace
}  // namespace powerplay::cli
