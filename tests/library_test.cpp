// Tests for the persistence layer: tokenizer, serialization round trips,
// the on-disk store, and user profiles.
#include "library/serialize.hpp"
#include "library/store.hpp"
#include "library/textio.hpp"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "models/berkeley_library.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

namespace powerplay::library {
namespace {

namespace fs = std::filesystem;

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

/// Unique temp directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("pp_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

// --- textio -------------------------------------------------------------------

TEST(TextIo, TokenizesAllKinds) {
  const auto toks = tokenize_document("model \"x\" { n 1.5e-3 } # comment");
  ASSERT_EQ(toks.size(), 7u);  // incl. kEnd
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[2].kind, TokKind::kLBrace);
  EXPECT_EQ(toks[4].kind, TokKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[4].number, 1.5e-3);
  EXPECT_EQ(toks[5].kind, TokKind::kRBrace);
}

TEST(TextIo, NegativeNumbersAndLineTracking) {
  const auto toks = tokenize_document("a\n-2.5\nb");
  EXPECT_DOUBLE_EQ(toks[1].number, -2.5);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
}

TEST(TextIo, StringEscapes) {
  const auto toks = tokenize_document(R"("say \"hi\" \\ there")");
  EXPECT_EQ(toks[0].text, "say \"hi\" \\ there");
}

TEST(TextIo, Errors) {
  EXPECT_THROW(tokenize_document("\"unterminated"), FormatError);
  EXPECT_THROW(tokenize_document("@"), FormatError);
}

TEST(TextIo, QuotedRoundTrip) {
  const std::string nasty = "a \"b\" \\c";
  const auto toks = tokenize_document(quoted(nasty));
  EXPECT_EQ(toks[0].text, nasty);
}

TEST(TextIo, NumberTextRoundTrips) {
  for (double v : {1.0, 0.1, 253e-15, 1.0 / 3.0, -2.5e6, 1e300}) {
    EXPECT_DOUBLE_EQ(std::stod(number_text(v)), v) << v;
  }
}

TEST(TextIo, CursorTypedAccess) {
  TokCursor cur(tokenize_document("model \"m\" { }"));
  cur.expect_ident("model");
  EXPECT_EQ(cur.take_string(), "m");
  cur.expect(TokKind::kLBrace);
  cur.expect(TokKind::kRBrace);
  EXPECT_TRUE(cur.at_end());
}

TEST(TextIo, CursorErrorsCarryLine) {
  TokCursor cur(tokenize_document("\n\nwrong"));
  try {
    cur.expect_ident("model");
    FAIL();
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// --- model serialization -------------------------------------------------------

model::UserModelDefinition sample_model() {
  model::UserModelDefinition def;
  def.name = "vq_lut";
  def.category = model::Category::kStorage;
  def.documentation = "grouped \"codebook\" model";
  def.params = {{"words", "entries", 1024, "", 1, 65536, true},
                {"bits", "word width", 24, "bits", 1, 64, true}};
  def.c_fullswing = "5e-12 + words*20e-15 + bits*500e-15 + words*bits*2.6e-15";
  def.area = "words * bits * 0.15e-9";
  return def;
}

TEST(Serialize, UserModelRoundTrip) {
  const auto def = sample_model();
  const auto back = parse_user_model(to_text(def));
  EXPECT_EQ(back.name, def.name);
  EXPECT_EQ(back.category, def.category);
  EXPECT_EQ(back.documentation, def.documentation);
  ASSERT_EQ(back.params.size(), 2u);
  EXPECT_EQ(back.params[0].name, "words");
  EXPECT_TRUE(back.params[0].integer);
  EXPECT_DOUBLE_EQ(back.params[1].default_value, 24);
  EXPECT_EQ(back.c_fullswing, def.c_fullswing);
  EXPECT_EQ(back.area, def.area);
  // And the round-tripped definition still evaluates identically.
  model::UserModel m1(def), m2(back);
  model::MapParamReader p({{"vdd", 1.5}, {"f", 5e5}, {"words", 1024.0},
                           {"bits", 24.0}});
  EXPECT_DOUBLE_EQ(m1.evaluate(p).total_power().si(),
                   m2.evaluate(p).total_power().si());
}

TEST(Serialize, PartialSwingFieldsRoundTrip) {
  model::UserModelDefinition def;
  def.name = "rs";
  def.c_partialswing = "10e-12";
  def.v_swing = "0.3";
  def.static_current = "1e-6";
  def.power_direct = "0.25";
  def.delay = "5e-9";
  const auto back = parse_user_model(to_text(def));
  EXPECT_EQ(back.c_partialswing, "10e-12");
  EXPECT_EQ(back.v_swing, "0.3");
  EXPECT_EQ(back.static_current, "1e-6");
  EXPECT_EQ(back.power_direct, "0.25");
  EXPECT_EQ(back.delay, "5e-9");
}

TEST(Serialize, ModelParseErrors) {
  EXPECT_THROW(parse_user_model("design \"x\" {}"), FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" { bogus 1 }"), FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" { category \"nope\" }"),
               FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" {"), FormatError);
}

// --- design serialization --------------------------------------------------------

TEST(Serialize, DesignRoundTripPreservesPlayResult) {
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const std::string text = to_text(d);
  const sheet::Design back = parse_design(text, lib(), nullptr);
  EXPECT_EQ(back.name(), d.name());
  EXPECT_EQ(back.rows().size(), d.rows().size());
  EXPECT_NEAR(back.play().total.total_power().si(),
              d.play().total.total_power().si(), 1e-18);
}

TEST(Serialize, DesignFormulasSurviveRoundTrip) {
  const sheet::Design d = studies::make_luminance_impl1(lib());
  const sheet::Design back = parse_design(to_text(d), lib(), nullptr);
  const auto r = back.play();
  for (const auto& [name, value] : r.find_row("Read Bank")->shown_params) {
    if (name == "f") {
      EXPECT_DOUBLE_EQ(value, 125e3);
    }
  }
}

TEST(Serialize, DesignWithMacroNeedsResolver) {
  sheet::Design top("top");
  top.globals().set("vdd", 1.5);
  auto sub = std::make_shared<sheet::Design>("sub");
  sub->globals().set("f", 1e6);
  sub->add_row("r", lib().find_shared("register"));
  top.add_macro("M", sub);
  const std::string text = to_text(top);
  EXPECT_NE(text.find("macro \"sub\""), std::string::npos);
  EXPECT_THROW(parse_design(text, lib(), nullptr), FormatError);
  const sheet::Design back = parse_design(
      text, lib(), [&](const std::string& name) {
        EXPECT_EQ(name, "sub");
        return sub;
      });
  EXPECT_TRUE(back.rows()[0].is_macro());
}

TEST(Serialize, DisabledFlagAndNoteRoundTrip) {
  sheet::Design d("toggles");
  d.globals().set("vdd", 1.5);
  auto& a = d.add_row("A", lib().find_shared("register"));
  a.note = "kept alternative";
  a.enabled = false;
  d.add_row("B", lib().find_shared("register"));
  const std::string text = to_text(d);
  EXPECT_NE(text.find("disabled 1"), std::string::npos);
  EXPECT_NE(text.find("note \"kept alternative\""), std::string::npos);
  const sheet::Design back = parse_design(text, lib(), nullptr);
  EXPECT_FALSE(back.find_row("A")->enabled);
  EXPECT_TRUE(back.find_row("B")->enabled);
  EXPECT_EQ(back.find_row("A")->note, "kept alternative");
}

TEST(Serialize, UnknownModelNameRejected) {
  const std::string text =
      "design \"d\" { row \"r\" { model \"not_a_model\" } }";
  EXPECT_THROW(parse_design(text, lib(), nullptr), FormatError);
}

// --- store ---------------------------------------------------------------------

TEST(Store, ModelSaveLoadList) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_TRUE(store.list_models().empty());
  store.save_model(sample_model());
  EXPECT_EQ(store.list_models(), (std::vector<std::string>{"vq_lut"}));
  auto loaded = store.load_model("vq_lut");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->c_fullswing, sample_model().c_fullswing);
  EXPECT_FALSE(store.load_model("missing").has_value());
}

TEST(Store, ProprietaryFlagPersisted) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_model(sample_model(), /*proprietary=*/true);
  EXPECT_TRUE(store.is_proprietary("vq_lut"));
  auto other = sample_model();
  other.name = "open_model";
  store.save_model(other);
  EXPECT_FALSE(store.is_proprietary("open_model"));
  // Proprietary models still load locally (firewall-internal use).
  EXPECT_TRUE(store.load_model("vq_lut").has_value());
}

TEST(Store, LoadAllModelsIntoRegistry) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_model(sample_model());
  model::ModelRegistry reg;
  store.load_all_models(reg);
  EXPECT_TRUE(reg.contains("vq_lut"));
}

TEST(Store, DesignSaveLoadRecursesMacros) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  sheet::Design top("top_design");
  top.globals().set("vdd", 1.5);
  auto sub = std::make_shared<sheet::Design>("sub_design");
  sub->globals().set("f", 1e6);
  sub->add_row("r", lib().find_shared("register"));
  top.add_macro("M", sub);
  store.save_design(top);
  // The macro was saved implicitly.
  EXPECT_TRUE(store.has_design("sub_design"));
  auto back = store.load_design("top_design", lib());
  EXPECT_TRUE(back->rows()[0].is_macro());
  EXPECT_NEAR(back->play().total.total_power().si(),
              top.play().total.total_power().si(), 1e-18);
}

TEST(Store, MissingDesignThrows) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_THROW(store.load_design("ghost", lib()), FormatError);
}

TEST(Store, NameValidation) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_THROW(validate_store_name(""), FormatError);
  EXPECT_THROW(validate_store_name("../etc/passwd"), FormatError);
  EXPECT_THROW(validate_store_name("a/b"), FormatError);
  EXPECT_THROW(validate_store_name(".hidden"), FormatError);
  EXPECT_NO_THROW(validate_store_name("Luminance_1"));
}

TEST(Store, UserProfileRoundTrip) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  UserProfile p;
  p.username = "dlidsky";
  p.defaults = {{"vdd", 1.1}, {"f", 2e6}};
  p.designs = {"Luminance_1", "Luminance_2"};
  store.save_user(p);
  auto back = store.load_user("dlidsky");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->defaults, p.defaults);
  EXPECT_EQ(back->designs, p.designs);
  EXPECT_EQ(store.list_users(), (std::vector<std::string>{"dlidsky"}));
}

TEST(Store, PasswordHashing) {
  UserProfile p;
  p.username = "u";
  EXPECT_FALSE(p.has_password());
  EXPECT_TRUE(p.check_password(""));
  EXPECT_TRUE(p.check_password("anything"));  // open access
  p.set_password("hunter2");
  EXPECT_TRUE(p.has_password());
  EXPECT_TRUE(p.check_password("hunter2"));
  EXPECT_FALSE(p.check_password("hunter3"));
  // Hash is deterministic and not the plaintext.
  EXPECT_EQ(p.password_hash, password_digest("hunter2"));
  EXPECT_NE(p.password_hash, "hunter2");
  p.set_password("");
  EXPECT_FALSE(p.has_password());
}

TEST(Store, PasswordSurvivesRoundTrip) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  UserProfile p;
  p.username = "locked";
  p.set_password("pw");
  store.save_user(p);
  auto back = store.load_user("locked");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->check_password("pw"));
  EXPECT_FALSE(back->check_password("nope"));
}

TEST(Store, EnsureUserCreatesDefaults) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  const UserProfile fresh = store.ensure_user("newbie");
  EXPECT_EQ(fresh.username, "newbie");
  EXPECT_TRUE(fresh.defaults.contains("vdd"));
  // Second call loads the same profile rather than resetting it.
  UserProfile changed = fresh;
  changed.defaults["vdd"] = 9.0;
  store.save_user(changed);
  EXPECT_DOUBLE_EQ(store.ensure_user("newbie").defaults["vdd"], 9.0);
}

TEST(Store, StudyDesignsRoundTripThroughStore) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  const sheet::Design pad = studies::make_infopad(lib());
  store.save_design(pad);
  EXPECT_TRUE(store.has_design("Custom_Chipset"));
  EXPECT_TRUE(store.has_design("Luminance_2"));
  auto back = store.load_design("InfoPad_System", lib());
  EXPECT_NEAR(back->play().total.total_power().si(),
              pad.play().total.total_power().si(), 1e-9);
}

// --- catalog ------------------------------------------------------------------

// Every save gives its entry a fresh stamp and leaves the others alone;
// only a new or removed name moves the listing.  A ReadScope records
// exactly the stamps a read took, absences as 0.
TEST(Catalog, StampsFollowSavesAndRemovals) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  const Catalog& catalog = store.catalog();
  const sheet::Design lum = studies::make_luminance_impl2(lib());
  store.save_design(lum);
  const std::uint64_t lum_stamp =
      catalog.stamp(EntryKind::kDesign, "Luminance_2");
  EXPECT_NE(lum_stamp, 0u);

  ReadSet reads;
  {
    ReadScope scope(catalog);
    EXPECT_TRUE(store.has_design("Luminance_2"));
    EXPECT_FALSE(store.has_design("Ghost"));
    EXPECT_EQ(store.list_designs(), std::vector<std::string>{"Luminance_2"});
    reads = scope.take();
  }
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[0].name, "");  // the listing sorts first
  EXPECT_EQ(reads[1], (EntryRead{EntryKind::kDesign, "Ghost", 0}));
  EXPECT_EQ(reads[2],
            (EntryRead{EntryKind::kDesign, "Luminance_2", lum_stamp}));
  EXPECT_TRUE(catalog.current(reads));

  store.save_user(default_profile("someone"));  // another kind: no effect
  EXPECT_TRUE(catalog.current(reads));
  store.save_design(lum);  // same name: new stamp, same listing
  EXPECT_FALSE(catalog.current(reads));
  EXPECT_TRUE(catalog.current({reads[0]}));
  sheet::Design ghost("Ghost");
  store.save_design(ghost);
  EXPECT_FALSE(catalog.current({reads[0]}));
  EXPECT_FALSE(catalog.current({reads[1]}));
  ASSERT_TRUE(store.remove_design("Ghost"));
  EXPECT_FALSE(store.has_design("Ghost"));
  EXPECT_FALSE(store.remove_design("Ghost"));
}

// Recovery catalogs what it verifies; a snapshot found corrupt at read
// time leaves the catalog with its quarantine.
TEST(Catalog, BuiltAtRecoveryAndPrunedByQuarantine) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_design(studies::make_luminance_impl2(lib()));
    store.save_design(sheet::Design("Other"));
  }
  LibraryStore store(tmp.path);
  EXPECT_EQ(store.list_designs(),
            (std::vector<std::string>{"Luminance_2", "Other"}));
  std::ofstream(tmp.path / "designs" / "Other.ppdesign",
                std::ios::binary | std::ios::trunc)
      << "not a snapshot";
  EXPECT_THROW((void)store.load_design("Other", lib()), FormatError);
  EXPECT_FALSE(store.has_design("Other"));
  EXPECT_EQ(store.list_designs(), std::vector<std::string>{"Luminance_2"});
  EXPECT_EQ(store.durability().quarantined_files, 1u);
}

// --- held sub-designs ------------------------------------------------------------

/// `src` under another top-level name, sharing its rows (and so its
/// macro objects).
sheet::Design renamed(const sheet::Design& src, const std::string& name) {
  sheet::Design d(name, src.description());
  d.globals() = src.globals();
  d.rows() = src.rows();
  return d;
}

/// The macro object of row `row` of `design`.
const sheet::Design* macro_of(const sheet::Design& design,
                              const std::string& row) {
  return design.find_row(row)->macro.get();
}

// A sub-design shared within one tree is committed once: the InfoPad
// tree is 4 records, not 5 (Luminance_2 backs two Custom_Chipset rows).
TEST(HeldDesigns, SharedSubDesignIsWrittenOncePerSave) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  EXPECT_EQ(store.durability().journal_appends, 4u);
}

// Two loads of one top-level design parse the top twice but share every
// sub-design object, down to the Luminance_2 both chip rows point at.
TEST(HeldDesigns, LoadsShareSubDesignObjects) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  store.save_design(renamed(studies::make_infopad(lib()), "Pad_Copy"));
  const auto first = store.load_design("Pad_Copy", lib());
  const auto second = store.load_design("Pad_Copy", lib());
  const auto base = store.load_design("InfoPad_System", lib());
  EXPECT_NE(first, second);
  const sheet::Design* chipset = macro_of(*first, "Custom Hardware");
  EXPECT_EQ(macro_of(*second, "Custom Hardware"), chipset);
  EXPECT_EQ(macro_of(*base, "Custom Hardware"), chipset);
  EXPECT_EQ(macro_of(*second, "uProcessor Subsystem"),
            macro_of(*first, "uProcessor Subsystem"));
  EXPECT_EQ(macro_of(*chipset, "Luminance Chip"),
            macro_of(*chipset, "Chrominance Chip"));
  EXPECT_EQ(second->play().total.total_power().si(),
            studies::make_infopad(lib()).play().total.total_power().si());
}

// A load served from held sub-designs records the same stamps as one
// that read them from disk, so read-set validation stays exact.
TEST(HeldDesigns, HeldLoadRecordsTheWholeTreeReadSet) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  const auto read_set = [&] {
    ReadScope scope(store.catalog());
    (void)store.load_design("InfoPad_System", lib());
    return scope.take();
  };
  const ReadSet cold = read_set();
  ASSERT_EQ(cold.size(), 4u);
  EXPECT_EQ(read_set(), cold);
}

// A commit to a held sub-design drops it: the next load parses the new
// Luminance_2 and the Custom_Chipset above it, and keeps the untouched
// processor subsystem.
TEST(HeldDesigns, CommitToASubDesignRenewsItAndItsUsers) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  const auto before = store.load_design("InfoPad_System", lib());
  const sheet::Design* chipset = macro_of(*before, "Custom Hardware");
  const sheet::Design* lum = macro_of(*chipset, "Luminance Chip");

  sheet::Design edited = studies::make_luminance_impl2(lib());
  edited.globals().set("vdd", 1.1);
  store.save_design(edited);
  const auto after = store.load_design("InfoPad_System", lib());
  const sheet::Design* new_chipset = macro_of(*after, "Custom Hardware");
  EXPECT_NE(new_chipset, chipset);
  EXPECT_NE(macro_of(*new_chipset, "Luminance Chip"), lum);
  EXPECT_EQ(macro_of(*after, "uProcessor Subsystem"),
            macro_of(*before, "uProcessor Subsystem"));
  EXPECT_EQ(to_text(*macro_of(*new_chipset, "Luminance Chip")),
            to_text(edited));
}

// Saving a loaded copy after a top-level edit writes the top only; a
// tree with a fresh sub-design object writes that sub-design, and the
// fresh tree below it, as before.
TEST(HeldDesigns, SaveWritesOnlyWhatTheStoreDoesNotHold) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  const auto appends = [&] { return store.durability().journal_appends; };
  sheet::Design copy(*store.load_design("InfoPad_System", lib()));
  copy.globals().set("vdd", 1.2);
  std::uint64_t before = appends();
  store.save_design(copy);
  EXPECT_EQ(appends(), before + 1);

  // A fresh Custom_Chipset (with a fresh Luminance_2) under a held
  // processor subsystem: chipset, Luminance_2 and the top.
  copy.find_row("Custom Hardware")->macro =
      std::make_shared<const sheet::Design>(
          studies::make_custom_chipset(lib()));
  before = appends();
  store.save_design(copy);
  EXPECT_EQ(appends(), before + 3);
  const auto back = store.load_design("InfoPad_System", lib());
  EXPECT_EQ(back->play().total.total_power().si(),
            copy.play().total.total_power().si());
}

// A model redefined in the registry reaches a design whose sub-design
// uses it: the held sub-design is parsed again against the new model.
TEST(HeldDesigns, RedefinedModelReachesTheNextPlay) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  model::ModelRegistry reg = models::berkeley_library();
  model::UserModelDefinition def;
  def.name = "amp";
  def.category = model::Category::kAnalog;
  def.params = {{"i", "bias current", 1e-3, "A"}};
  def.static_current = "i";
  reg.add_or_replace(std::make_shared<model::UserModel>(def));
  auto sub = std::make_shared<sheet::Design>("Amp_Block");
  sub->globals().set("vdd", 1.0);
  sub->add_row("A", reg.find_shared("amp"));
  sheet::Design top("Amp_Top");
  top.add_macro("Block", sub);
  store.save_design(top);

  const auto first = store.load_design("Amp_Top", reg);
  EXPECT_DOUBLE_EQ(first->play().total.total_power().si(), 1e-3);
  EXPECT_EQ(store.load_design("Amp_Top", reg)->rows()[0].macro,
            first->rows()[0].macro);
  def.static_current = "2*i";
  reg.add_or_replace(std::make_shared<model::UserModel>(def));
  const auto second = store.load_design("Amp_Top", reg);
  EXPECT_NE(second->rows()[0].macro, first->rows()[0].macro);
  EXPECT_DOUBLE_EQ(second->play().total.total_power().si(), 2e-3);
}

// Removing a held sub-design makes every design above it fail to load,
// exactly as when it was read from disk.
TEST(HeldDesigns, RemovedSubDesignFailsItsUsers) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  (void)store.load_design("InfoPad_System", lib());
  ASSERT_TRUE(store.remove_design("Luminance_2"));
  EXPECT_THROW((void)store.load_design("InfoPad_System", lib()), FormatError);
  EXPECT_THROW((void)store.load_design("Custom_Chipset", lib()), FormatError);
  EXPECT_NO_THROW((void)store.load_design("uProcessor_Subsystem", lib()));
}

}  // namespace
}  // namespace powerplay::library
