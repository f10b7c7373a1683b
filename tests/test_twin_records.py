"""Each compiled twin is declared once, by its records in
:mod:`repro.kernel.layout`.

- ``cgen.generate_source()`` joins every ``kernel/c/*.c`` file exactly
  once;
- each table family record names an existing C file of its own;
- every twin slot and every twin table in the pointer table belongs to
  exactly one family record (each family's names share a prefix that no
  other name in the layout uses);
- every ``SCHEME_*`` kind belongs to exactly one class record;
- every family's pack and write-back carry a scheme that already
  trained: the record's loop and the family's own packers together
  lose nothing of its state.
"""

import pytest
from test_kernel_parity import needs_compiled
from test_kernel_parity import test_mid_run_pack_carries_scheme_state as mid_run_pack

from repro.kernel import cgen, layout


def _family_names(family):
    return (
        *(slot for slot, _ in family.slots),
        *(slot for slot, _ in family.fconfig),
        *(table.name for table in family.arrays),
    )


def _prefix(family):
    return _family_names(family)[0].split("_")[0] + "_"


def test_source_joins_every_c_file_once():
    source = cgen.generate_source()
    on_disk = sorted(path.name for path in cgen.C_DIR.glob("*.c"))
    assert sorted(cgen.C_FILES) == on_disk
    for name in on_disk:
        assert source.count((cgen.C_DIR / name).read_text()) == 1, name


def test_each_family_names_its_own_c_file():
    c_files = [family.c_file for family in layout.FAMILIES]
    assert len(set(c_files)) == len(c_files)
    for name in c_files:
        assert (cgen.C_DIR / name).is_file(), name


@pytest.mark.parametrize("family", layout.FAMILIES, ids=lambda family: family.name)
def test_family_names_share_one_prefix(family):
    names = _family_names(family)
    assert len(set(names)) == len(names)
    assert all(name.startswith(_prefix(family)) for name in names)


def test_every_twin_slot_and_table_belongs_to_exactly_one_family():
    owner = {}
    for family in layout.FAMILIES:
        for name in _family_names(family):
            assert name not in owner, f"{name}: {owner.get(name, family).name} and {family.name}"
            owner[name] = family
    prefixes = tuple(_prefix(family) for family in layout.FAMILIES)
    assert len(set(prefixes)) == len(prefixes)
    layout_names = (*layout.CI64_NAMES, *layout.CF64_NAMES, *layout.PTR_NAMES)
    assert len(set(layout_names)) == len(layout_names)
    # no slot or table of a family's prefix that its record does not declare
    assert {name for name in layout_names if name.startswith(prefixes)} == set(owner)


def test_every_kind_belongs_to_exactly_one_class_record():
    kinds = {
        name: value
        for name, value in vars(layout).items()
        if name.startswith("SCHEME_") and isinstance(value, int)
    }
    record_kinds = [twin.kind for twin in layout.TWINS]
    assert sorted(record_kinds) == sorted(kinds.values())
    assert len({twin.cls for twin in layout.TWINS}) == len(layout.TWINS)
    assert all(twin.family in layout.FAMILIES for twin in layout.TWINS)
    assert layout.SCHEME_FAMILY == {twin.kind: twin.family for twin in layout.TWINS}


@needs_compiled
@pytest.mark.parametrize(
    "scheme,workload",
    # the families test_kernel_parity's mid-run rows (BOP, SMS) leave out,
    # alone and as composite components
    [
        ("spp", "fspec06.libquantum"),
        ("espp", "ispec06.mcf"),
        ("dspatch", "server.tpcc-1"),
        ("streamer", "ispec06.mcf"),
        ("spp+bop+dspatch", "cloud.memcached"),
    ],
)
def test_every_family_packs_a_trained_scheme(scheme, workload):
    mid_run_pack(scheme, workload, 1500)
