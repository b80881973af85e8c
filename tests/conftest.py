"""Shared fixtures: balls are expensive, so grow each one once per session."""

import pytest

from horobound.boundary import boundary_approx
from horobound.cayley import grow_ball
from horobound.examples import example, fat_cylinder
from horobound.groups import (
    FgAbelianGroup,
    FgAbelianSpec,
    VAbExtensionGroup,
    VAbExtensionSpec,
    cyclic_table,
    symmetric_generating_set,
)
from horobound.metrics import build_ball_system


@pytest.fixture(scope="session")
def z_pair():
    return example("z_line")


@pytest.fixture(scope="session")
def z_ball(z_pair):
    group, gens = z_pair
    return grow_ball(group, gens, 15)


@pytest.fixture(scope="session")
def z2_pair():
    return example("z2")


@pytest.fixture(scope="session")
def z2_ball12(z2_pair):
    group, gens = z2_pair
    return grow_ball(group, gens, 12)


@pytest.fixture(scope="session")
def z2_ball16(z2_pair):
    group, gens = z2_pair
    return grow_ball(group, gens, 16)


@pytest.fixture(scope="session")
def cyl4_pair():
    return example("cylinder_n4")


@pytest.fixture(scope="session")
def cyl4_ball15(cyl4_pair):
    group, gens = cyl4_pair
    return grow_ball(group, gens, 15)


@pytest.fixture(scope="session")
def cyl4_ball20(cyl4_pair):
    group, gens = cyl4_pair
    return grow_ball(group, gens, 20)


@pytest.fixture(scope="session")
def fat3_pair():
    return fat_cylinder(3)


@pytest.fixture(scope="session")
def fat3_ball12(fat3_pair):
    group, gens = fat3_pair
    return grow_ball(group, gens, 12)


@pytest.fixture(scope="session")
def rot4_pair():
    return example("z2_rot4")


@pytest.fixture(scope="session")
def rot4_ball10(rot4_pair):
    group, gens = rot4_pair
    return grow_ball(group, gens, 10)


def cylinder_diag(n):
    """Z x Z/n with S = {(+-1, 0), (1, 1), (-1, -1)}."""
    group = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(n,)))
    listed = [group.element((1, 0)), group.element((1, 1))]
    return group, symmetric_generating_set(group, listed, ["a", "b"])


def cylinder_extension(n):
    """Z x Z/n with S = {(+-1, 0), (+-1, +-1)}, presented as Z extended by
    Z/n with trivial action and zero cocycle."""
    zero = (0,)
    spec = VAbExtensionSpec(
        rank=1,
        quotient_table=cyclic_table(n),
        action=tuple(((1,),) for _ in range(n)),
        cocycle=tuple(tuple(zero for _ in range(n)) for _ in range(n)),
    )
    group = VAbExtensionGroup(spec)
    listed = [group.element(((1,), q)) for q in (0, 1, n - 1)]
    return group, symmetric_generating_set(group, listed, ["a", "b", "c"])


@pytest.fixture(scope="session")
def ext4_pair():
    return cylinder_extension(4)


@pytest.fixture(scope="session")
def ext4_ball10(ext4_pair):
    group, gens = ext4_pair
    return grow_ball(group, gens, 10)


@pytest.fixture(scope="session")
def cyl30_pair():
    return cylinder_diag(30)


@pytest.fixture(scope="session")
def cyl30_ball67(cyl30_pair):
    group, gens = cyl30_pair
    return grow_ball(group, gens, 67)


@pytest.fixture(scope="session")
def cyl30_approx(cyl30_ball67):
    return boundary_approx(cyl30_ball67, 49, 18)


@pytest.fixture(scope="session")
def lamp_pair():
    return example("lamplighter_z2")


@pytest.fixture(scope="session")
def lamp_bs4(lamp_pair):
    group, gens = lamp_pair
    return build_ball_system(group, gens, None, 4)
