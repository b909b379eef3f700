//! The run cache keys a model's binary image by its content digest
//! (`BinaryMap::digest`), not by walking its line tables. These tests pin
//! that the digest is a sound key: every field of the image moves
//! `stable_hash(app)`, every decoder rebuilds a map that equals and
//! hashes like the built one, and clones share one digest.

use ecohmem_obs::Json;
use ecohmem_serve::proto::{self, Frame, Mode, PROTO_VERSION};
use memsim::{stable_hash, AppModel};
use memtrace::{BinaryMap, BinaryMapBuilder, EventBatch, TraceFile};

fn header(binmap: &BinaryMap) -> TraceFile {
    TraceFile {
        app_name: "cache-keys".into(),
        seed: 1,
        ranks: 1,
        sampling_hz: 1000.0,
        load_sample_period: 1.0,
        store_sample_period: 1.0,
        duration: 1.0,
        stacks: Vec::new(),
        binmap: binmap.clone(),
        events: EventBatch::default(),
    }
}

fn json_round_trip(binmap: &BinaryMap) -> BinaryMap {
    TraceFile::from_json(&header(binmap).to_json().unwrap()).unwrap().binmap
}

fn binfmt_round_trip(binmap: &BinaryMap) -> BinaryMap {
    let mut bytes = Vec::new();
    memtrace::write_trace(&header(binmap), &mut bytes).unwrap();
    memtrace::read_trace(&bytes[..]).unwrap().binmap
}

fn hello_round_trip(binmap: &BinaryMap) -> BinaryMap {
    let hello = Frame::Hello {
        version: PROTO_VERSION,
        tenant: "t0".into(),
        mode: Mode::Bin,
        header: proto::encode_header(&header(binmap)).unwrap(),
    };
    // The frame body after its 4-byte length prefix, decoded as the
    // reactor decodes it once it has framed the bytes.
    let bytes = proto::encode(&hello);
    match proto::decode(&bytes[4..]).unwrap() {
        Frame::Hello { header, .. } => proto::decode_header(&header).unwrap().binmap,
        other => panic!("decoded {other:?}"),
    }
}

/// `app` with its image carried through the JSON trace codec after `edit`
/// rewrote the first module's decoded JSON object.
fn with_edited_module(app: &AppModel, edit: impl FnOnce(&mut Json)) -> AppModel {
    let mut trace = Json::parse(&header(&app.binmap).to_json().unwrap()).unwrap();
    let Some(Json::Arr(modules)) = trace.get_mut("binmap").and_then(|b| b.get_mut("modules"))
    else {
        panic!("trace JSON has no module list")
    };
    edit(&mut modules[0]);
    let binmap = TraceFile::from_json(&trace.to_string_compact()).unwrap().binmap;
    AppModel { binmap, ..app.clone() }
}

fn bump(v: &mut Json) {
    let n = v.as_u64().expect("an integer field");
    *v = Json::U64(n + 1);
}

fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    obj.get_mut(key).unwrap_or_else(|| panic!("no field `{key}`"))
}

/// The second line entry of the edited module.
fn line_entry(module: &mut Json) -> &mut Json {
    let Json::Arr(entries) = field(module, "line_table") else { panic!("line table") };
    &mut entries[1]
}

#[test]
fn every_image_field_moves_the_model_hash() {
    let app = workloads::minife::model();
    assert!(app.binmap.modules()[0].files.len() >= 2, "the edits below need two source files");
    let base = stable_hash(&app);
    assert_eq!(stable_hash(&with_edited_module(&app, |_| {})), base, "an unedited decode");

    type Edit = fn(&mut Json);
    let edits: [(&str, Edit); 10] = [
        ("ModuleInfo.id", |m| bump(field(m, "id"))),
        ("ModuleInfo.name", |m| *field(m, "name") = Json::str("b.out")),
        ("ModuleInfo.text_size", |m| bump(field(m, "text_size"))),
        ("ModuleInfo.debug_info_size", |m| bump(field(m, "debug_info_size"))),
        ("ModuleInfo.files", |m| {
            let Json::Arr(files) = field(m, "files") else { panic!("files") };
            files[0] = Json::str("renamed.c");
        }),
        ("ModuleInfo.line_table", |m| {
            let Json::Arr(entries) = field(m, "line_table") else { panic!("line table") };
            entries.pop();
        }),
        ("LineEntry.start", |m| bump(field(line_entry(m), "start"))),
        ("LineEntry.end", |m| bump(field(line_entry(m), "end"))),
        ("LineEntry.file", |m| *field(line_entry(m), "file") = Json::U64(0)),
        ("LineEntry.line", |m| bump(field(line_entry(m), "line"))),
    ];
    for (what, edit) in edits {
        let edited = with_edited_module(&app, edit);
        assert_ne!(edited.binmap, app.binmap, "{what}: the edit must change the image");
        assert_ne!(stable_hash(&edited), base, "{what}: the edit left the model hash unchanged");
    }
}

#[test]
fn decoded_maps_equal_and_hash_like_the_built_one() {
    let apps = [workloads::minife::model(), workloads::lulesh::model(), workloads::hpcg::model()];
    for app in apps {
        let built = &app.binmap;
        for (codec, decoded) in [
            ("json", json_round_trip(built)),
            ("binfmt", binfmt_round_trip(built)),
            ("serve hello", hello_round_trip(built)),
        ] {
            assert_eq!(&decoded, built, "{}: {codec} decode differs", app.name);
            assert_eq!(decoded.digest(), built.digest(), "{}: {codec} digest", app.name);
            let rebuilt = AppModel { binmap: decoded, ..app.clone() };
            assert_eq!(stable_hash(&rebuilt), stable_hash(&app), "{}: {codec} hash", app.name);
        }
    }
}

#[test]
fn clones_and_scaled_models_share_one_digest() {
    let app = workloads::lulesh::model();
    let clone = app.clone();
    let scaled = workloads::scale_model(&app, 0.5);
    // A shared module slice means a shared image, and the image holds the
    // one digest cell: whichever map asks first computes it for all.
    for (what, other) in [("clone", &clone.binmap), ("scale_model", &scaled.binmap)] {
        assert!(std::ptr::eq(app.binmap.modules(), other.modules()), "{what} copied the image");
        assert_eq!(other.digest(), app.binmap.digest(), "{what}");
    }
    // A separately built equal image is equal and digests equal, but is
    // its own image.
    let rebuilt = workloads::lulesh::model();
    assert!(!std::ptr::eq(app.binmap.modules(), rebuilt.binmap.modules()));
    assert_eq!(rebuilt.binmap, app.binmap);
    assert_eq!(stable_hash(&rebuilt), stable_hash(&app));
}

#[test]
fn default_map_equals_an_empty_build() {
    let empty = BinaryMapBuilder::new().build();
    assert_eq!(BinaryMap::default(), empty);
    assert_eq!(BinaryMap::default().digest(), empty.digest());
    assert_eq!(json_round_trip(&BinaryMap::default()), empty);
    assert_ne!(BinaryMap::default(), workloads::minife::model().binmap);
}
