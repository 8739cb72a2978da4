//! Key encoding for containers and products (paper §II-C).
//!
//! * A **dataset** is identified by its full path (e.g. `fermilab/nova`);
//!   the path maps to a [`crate::Uuid`] stored in a dataset database under
//!   the key `<parent path> 0x01 <name>`, so that the direct children of a
//!   dataset form one contiguous, sorted key range.
//! * A **run** is `<dataset UUID><run number BE>`; **subruns** and
//!   **events** append further big-endian numbers. Big-endian encoding makes
//!   lexicographic order equal numeric order, which is what lets HEPnOS
//!   iterate containers with plain sorted-database scans (§II-C3).
//! * A **product** key is its container's key, followed by the label, `#`,
//!   and the product's type name.

use crate::error::HepnosError;
use crate::uuid::Uuid;

/// Run number within a dataset.
pub type RunNumber = u64;
/// Subrun number within a run.
pub type SubRunNumber = u64;
/// Event number within a subrun.
pub type EventNumber = u64;

/// Separator between a parent path and a child name in dataset keys.
/// `0x01` sorts below every printable character, keeping a parent's children
/// contiguous and ordered by name.
pub const DATASET_SEP: u8 = 0x01;

/// Separator between a product's label and its type name.
pub const PRODUCT_SEP: u8 = b'#';

/// A validated dataset path: one or more non-empty components joined by `/`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetPath {
    components: Vec<String>,
}

impl DatasetPath {
    /// Parse and validate a path like `fermilab/nova`. Leading/trailing
    /// slashes are tolerated; empty components, `#`, and control bytes are
    /// rejected (they would corrupt key framing).
    pub fn parse(path: &str) -> Result<DatasetPath, HepnosError> {
        let components: Vec<String> = path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(|c| c.to_string())
            .collect();
        if components.is_empty() {
            return Err(HepnosError::InvalidPath(path.to_string()));
        }
        for c in &components {
            if c.bytes().any(|b| b == PRODUCT_SEP || b < 0x20) {
                return Err(HepnosError::InvalidPath(path.to_string()));
            }
        }
        Ok(DatasetPath { components })
    }

    /// Build from pre-validated components.
    pub fn from_components(components: Vec<String>) -> Result<DatasetPath, HepnosError> {
        Self::parse(&components.join("/"))
    }

    /// The path's components.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Last component.
    pub fn name(&self) -> &str {
        self.components.last().expect("paths are non-empty")
    }

    /// Parent path (`None` for a top-level dataset).
    pub fn parent(&self) -> Option<DatasetPath> {
        if self.components.len() <= 1 {
            None
        } else {
            Some(DatasetPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Canonical string form (no leading slash).
    pub fn full(&self) -> String {
        self.components.join("/")
    }

    /// Append one component.
    pub fn child(&self, name: &str) -> Result<DatasetPath, HepnosError> {
        let mut c = self.components.clone();
        c.push(name.to_string());
        DatasetPath::from_components(c)
    }
}

impl std::fmt::Display for DatasetPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.full())
    }
}

/// The string under which a dataset is recorded: `<parent> 0x01 <name>`.
/// The root's children use an empty parent.
pub fn dataset_key(parent_full: &str, name: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(parent_full.len() + 1 + name.len());
    key.extend_from_slice(parent_full.as_bytes());
    key.push(DATASET_SEP);
    key.extend_from_slice(name.as_bytes());
    key
}

/// Prefix matching all direct children of a dataset (`""` for the root).
pub fn dataset_children_prefix(parent_full: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(parent_full.len() + 1);
    p.extend_from_slice(parent_full.as_bytes());
    p.push(DATASET_SEP);
    p
}

/// Extract the child name back out of a dataset key.
pub fn dataset_key_name(key: &[u8]) -> Option<&str> {
    let sep = key.iter().rposition(|&b| b == DATASET_SEP)?;
    std::str::from_utf8(&key[sep + 1..]).ok()
}

/// Placement input for a dataset key: its parent's full path (paper §II-C3:
/// a container key is placed by hashing the *parent's* key).
pub fn dataset_parent_bytes(parent_full: &str) -> Vec<u8> {
    parent_full.as_bytes().to_vec()
}

/// Length of a run key, and so of the prefix of a subrun key that places
/// the subrun.
pub(crate) const RUN_KEY_LEN: usize = 24;

/// `<uuid><run BE>` — 24 bytes.
pub fn run_key(dataset: &Uuid, run: RunNumber) -> Vec<u8> {
    let mut key = Vec::with_capacity(RUN_KEY_LEN);
    key.extend_from_slice(dataset.as_bytes());
    key.extend_from_slice(&run.to_be_bytes());
    key
}

/// Length of a subrun key, and so of the prefix of an event key that
/// places the event.
pub(crate) const SUBRUN_KEY_LEN: usize = 32;

/// `<uuid><run BE><subrun BE>` — 32 bytes.
pub fn subrun_key(dataset: &Uuid, run: RunNumber, subrun: SubRunNumber) -> Vec<u8> {
    let mut key = run_key(dataset, run);
    key.extend_from_slice(&subrun.to_be_bytes());
    key
}

/// Length of an event key, and so the offset of the label in every
/// event-level product key.
pub const EVENT_KEY_LEN: usize = 40;

/// `<uuid><run BE><subrun BE><event BE>` — [`EVENT_KEY_LEN`] bytes.
pub fn event_key(
    dataset: &Uuid,
    run: RunNumber,
    subrun: SubRunNumber,
    event: EventNumber,
) -> Vec<u8> {
    let mut key = subrun_key(dataset, run, subrun);
    key.extend_from_slice(&event.to_be_bytes());
    key
}

/// Last 8 bytes of a container key, decoded as the container's own number.
pub fn trailing_number(key: &[u8]) -> Option<u64> {
    if key.len() < 8 {
        return None;
    }
    let tail: [u8; 8] = key[key.len() - 8..].try_into().ok()?;
    Some(u64::from_be_bytes(tail))
}

/// Decode an event key into `(run, subrun, event)`.
pub fn parse_event_key(key: &[u8]) -> Option<(Uuid, RunNumber, SubRunNumber, EventNumber)> {
    if key.len() != EVENT_KEY_LEN {
        return None;
    }
    let uuid = Uuid::from_slice(&key[..16])?;
    let run = u64::from_be_bytes(key[16..24].try_into().ok()?);
    let subrun = u64::from_be_bytes(key[24..32].try_into().ok()?);
    let event = u64::from_be_bytes(key[32..40].try_into().ok()?);
    Some((uuid, run, subrun, event))
}

/// `<container key><label>#<type>`.
pub fn product_key(container_key: &[u8], label: &str, type_name: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(container_key.len() + label.len() + 1 + type_name.len());
    key.extend_from_slice(container_key);
    key.extend_from_slice(label.as_bytes());
    key.push(PRODUCT_SEP);
    key.extend_from_slice(type_name.as_bytes());
    key
}

/// A stable, human-readable type name for product keys, derived from
/// [`std::any::type_name`] with crate paths stripped (`alloc::vec::Vec<app::
/// Particle>` → `Vec<Particle>`), matching how the C++ implementation uses
/// demangled class names.
pub fn short_type_name<T: ?Sized>() -> String {
    short_type_pieces(std::any::type_name::<T>()).collect()
}

/// Whether `name` is [`short_type_name::<T>()`](short_type_name), checked
/// piece by piece without building the name.
pub fn is_short_type_name<T: ?Sized>(name: &str) -> bool {
    let mut rest = name;
    for piece in short_type_pieces(std::any::type_name::<T>()) {
        match rest.strip_prefix(piece) {
            Some(tail) => rest = tail,
            None => return false,
        }
    }
    rest.is_empty()
}

/// The pieces of a short type name, in order: each path segment of `full`
/// without its crate path, then the delimiter that ended it.
fn short_type_pieces(full: &str) -> impl Iterator<Item = &str> {
    let delimiter = |c: char| matches!(c, '<' | '>' | ',' | ' ' | '(' | ')' | '[' | ']' | ';');
    full.split_inclusive(delimiter).flat_map(move |piece| {
        let cut = piece.len() - piece.ends_with(delimiter) as usize;
        let (path, end) = piece.split_at(cut);
        [path.rsplit("::").next().unwrap_or(path), end]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uuid(b: u8) -> Uuid {
        Uuid::from_bytes([b; 16])
    }

    #[test]
    fn container_keys_begin_with_the_lsm_partition_prefix() {
        // bedrock partitions the container databases' tables by the
        // leading `Uuid::LEN` key bytes: exactly the dataset UUID.
        let len = Uuid::LEN;
        let keys = |ds: &Uuid| {
            let event = event_key(ds, 3, 4, 5);
            vec![
                run_key(ds, 3),
                subrun_key(ds, 3, 4),
                product_key(&event, "rec", "Vec<Slice>"),
                event,
            ]
        };
        let (a, b) = (uuid(1), uuid(2));
        for (ka, kb) in keys(&a).iter().zip(&keys(&b)) {
            assert_eq!(&ka[..len], a.as_bytes());
            assert_eq!(&kb[..len], b.as_bytes());
            // Past the prefix, a key does not depend on its dataset.
            assert_eq!(ka[len..], kb[len..]);
        }
    }

    #[test]
    fn dataset_path_parse_and_normalize() {
        let p = DatasetPath::parse("/fermilab/nova/").unwrap();
        assert_eq!(p.full(), "fermilab/nova");
        assert_eq!(p.name(), "nova");
        assert_eq!(p.parent().unwrap().full(), "fermilab");
        assert_eq!(p.parent().unwrap().parent(), None);
    }

    #[test]
    fn dataset_path_rejects_bad_input() {
        assert!(DatasetPath::parse("").is_err());
        assert!(DatasetPath::parse("///").is_err());
        assert!(DatasetPath::parse("a#b").is_err());
        assert!(DatasetPath::parse("a\x01b").is_err());
    }

    #[test]
    fn dataset_key_round_trip() {
        let k = dataset_key("fermilab", "nova");
        assert_eq!(dataset_key_name(&k), Some("nova"));
        assert!(k.starts_with(&dataset_children_prefix("fermilab")));
        // Root-level dataset:
        let k2 = dataset_key("", "fermilab");
        assert_eq!(dataset_key_name(&k2), Some("fermilab"));
    }

    #[test]
    fn sibling_datasets_share_prefix_nested_do_not() {
        let prefix = dataset_children_prefix("fermilab");
        assert!(dataset_key("fermilab", "nova").starts_with(&prefix));
        assert!(dataset_key("fermilab", "dune").starts_with(&prefix));
        assert!(!dataset_key("fermilab/nova", "mc").starts_with(&prefix));
    }

    #[test]
    fn container_key_lengths() {
        let u = uuid(7);
        assert_eq!(run_key(&u, 1).len(), 24);
        assert_eq!(subrun_key(&u, 1, 2).len(), 32);
        assert_eq!(event_key(&u, 1, 2, 3).len(), 40);
    }

    #[test]
    fn big_endian_keys_sort_numerically() {
        let u = uuid(1);
        let mut keys: Vec<Vec<u8>> = [300u64, 2, 1000, 0, 255, 256]
            .iter()
            .map(|&n| run_key(&u, n))
            .collect();
        keys.sort();
        let nums: Vec<u64> = keys.iter().map(|k| trailing_number(k).unwrap()).collect();
        assert_eq!(nums, vec![0, 2, 255, 256, 300, 1000]);
    }

    #[test]
    fn event_key_parse_round_trip() {
        let u = uuid(9);
        let k = event_key(&u, 11, 22, 33);
        assert_eq!(parse_event_key(&k), Some((u, 11, 22, 33)));
        assert_eq!(parse_event_key(&k[..39]), None);
    }

    #[test]
    fn child_keys_share_parent_prefix() {
        let u = uuid(2);
        let parent = subrun_key(&u, 5, 6);
        for ev in [0u64, 1, 99999] {
            assert!(event_key(&u, 5, 6, ev).starts_with(&parent));
        }
        // Different subrun: different prefix.
        assert!(!event_key(&u, 5, 7, 0).starts_with(&parent));
    }

    #[test]
    fn product_key_layout() {
        let u = uuid(3);
        let ck = event_key(&u, 1, 1, 4);
        let pk = product_key(&ck, "mylabel", "Particle");
        assert!(pk.starts_with(&ck));
        assert!(pk.ends_with(b"mylabel#Particle"));
    }

    #[test]
    fn short_type_names() {
        assert_eq!(short_type_name::<u32>(), "u32");
        assert_eq!(short_type_name::<Vec<u8>>(), "Vec<u8>");
        assert_eq!(short_type_name::<String>(), "String");
        assert_eq!(
            short_type_name::<std::collections::HashMap<String, Vec<u64>>>(),
            "HashMap<String, Vec<u64>>"
        );
        struct Local;
        assert!(short_type_name::<Local>().ends_with("Local"));
    }

    /// The allocation-free check agrees with the built name on nested
    /// generics, tuples, arrays, slices and references, and rejects every
    /// name that differs by a prefix, a suffix or one segment.
    #[test]
    fn type_name_check_agrees_with_the_built_name() {
        struct Hit;
        struct HitList;
        fn agrees<T: ?Sized>(want: &str) {
            let name = short_type_name::<T>();
            assert_eq!(name, want);
            assert!(is_short_type_name::<T>(&name), "{name}");
            for cut in 0..name.len() {
                assert!(
                    !is_short_type_name::<T>(&name[..cut]),
                    "{name} cut at {cut}"
                );
            }
            assert!(!is_short_type_name::<T>(&format!("{name}x")), "{name}x");
            assert!(!is_short_type_name::<T>(&format!("x{name}")), "x{name}");
        }
        agrees::<Hit>("Hit");
        agrees::<HitList>("HitList");
        agrees::<Vec<Hit>>("Vec<Hit>");
        agrees::<std::collections::HashMap<String, Vec<Option<Hit>>>>(
            "HashMap<String, Vec<Option<Hit>>>",
        );
        agrees::<(u32, Hit, (f32, Vec<u8>))>("(u32, Hit, (f32, Vec<u8>))");
        agrees::<[Hit; 4]>("[Hit; 4]");
        agrees::<[Vec<HitList>]>("[Vec<HitList>]");
        agrees::<&str>("&str");
        agrees::<()>("()");
        assert!(!is_short_type_name::<Hit>("HitList"));
        assert!(!is_short_type_name::<HitList>("Hit"));
        assert!(!is_short_type_name::<Vec<Hit>>("Vec<HitList>"));
    }

    #[test]
    fn products_of_same_container_share_container_prefix() {
        let u = uuid(4);
        let ck = event_key(&u, 1, 2, 3);
        let p1 = product_key(&ck, "a", "T");
        let p2 = product_key(&ck, "b", "U");
        assert!(p1.starts_with(&ck) && p2.starts_with(&ck));
        assert!(p1 < p2);
    }
}
