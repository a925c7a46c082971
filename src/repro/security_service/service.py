"""The IoT Security Service: identification + vulnerability assessment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.profiles import StepKind
from repro.devices.simulator import LabEnvironment
from repro.identification.identifier import DeviceTypeIdentifier
from repro.security_service.isolation import IsolationLevel, isolation_level_for
from repro.security_service.vulnerability import (
    VulnerabilityDatabase,
    VulnerabilityRecord,
    build_default_database,
)

_CLOUD_STEP_KINDS = (
    StepKind.HTTPS_CONNECT,
    StepKind.HTTP_GET,
    StepKind.HTTP_POST,
    StepKind.TCP_CONNECT,
    StepKind.UDP_SEND,
    StepKind.NTP_SYNC,
)


def vendor_cloud_destinations(
    device_type: str, environment: Optional[LabEnvironment] = None
) -> tuple[str, ...]:
    """The cloud endpoints a device-type legitimately needs to reach.

    For the *restricted* isolation level the IoT Security Service hands the
    Security Gateway the set of permitted remote addresses; this helper
    derives them from the device's behaviour profile (the hosts it contacts
    during setup), resolved through the same deterministic resolver the
    traffic simulator uses.
    """
    if device_type not in DEVICE_CATALOG:
        return ()
    environment = environment or LabEnvironment()
    hosts: list[str] = []
    for step in DEVICE_CATALOG[device_type].steps:
        if step.kind in _CLOUD_STEP_KINDS and step.target:
            if step.target not in hosts:
                hosts.append(step.target)
    return tuple(environment.resolve(host) for host in hosts)


@dataclass(frozen=True)
class SecurityAssessment:
    """The answer the service returns to a Security Gateway for one device."""

    device_type: str
    isolation_level: IsolationLevel
    vulnerabilities: tuple[VulnerabilityRecord, ...] = ()
    allowed_destinations: tuple[str, ...] = ()


class _ServingTable:
    """Per-type assessments, valid for one identifier revision and repository state.

    ``assessed`` holds every type as assessed; ``provisional`` the same
    types while they are provisional (capped below trusted).  The table
    records what it was derived from, so the service can tell when it no
    longer holds.
    """

    __slots__ = ("identifier", "revision", "database", "database_revision", "environment",
                 "assessed", "provisional")

    def __init__(
        self,
        identifier: DeviceTypeIdentifier,
        database: VulnerabilityDatabase,
        environment: LabEnvironment,
    ):
        self.identifier = identifier
        self.revision = identifier.revision
        self.database = database
        self.database_revision = database.revision
        self.environment = environment
        self.assessed: dict[str, SecurityAssessment] = {}
        self.provisional: dict[str, SecurityAssessment] = {}


@dataclass
class IoTSecurityService:
    """The cloud-side service combining identification and risk assessment.

    The gateway's identification stage (the streaming dispatcher) labels
    each fingerprint with :attr:`identifier`; the service turns that
    device-type label into an assessment.  It is stateless with respect to
    its gateway clients, exactly as the paper prescribes for privacy: it
    stores nothing about who asked.

    Assessments are served from a per-type table derived once per model
    revision: the first verdict for a type assesses it, later ones look
    it up.  The table is rebuilt whenever what it was derived from moves
    -- a different identifier (bundle swap), a new identifier revision
    (:meth:`~repro.identification.identifier.DeviceTypeIdentifier.add_device_type`),
    a new vulnerability record (:meth:`VulnerabilityDatabase.add`) or a
    different environment -- and :attr:`provisional_types` is read on
    every call, so promoting a label takes effect at the next verdict.

    Attributes:
        identifier: the trained two-stage device-type identifier.
        vulnerability_db: the CVE-like repository consulted per type.
        environment: resolver used to derive vendor-cloud destinations.
        provisional_types: device-type labels registered at runtime
            without operator review (the lifecycle autopilot's
            auto-learned unknown models).  A provisional type has no
            vulnerability record *because nobody has assessed it yet*,
            so it is capped below trusted isolation until an operator
            promotes the label
            (:meth:`~repro.identification.autopilot.LifecycleAutopilot.promote`).
    """

    identifier: DeviceTypeIdentifier
    vulnerability_db: VulnerabilityDatabase = field(default_factory=build_default_database)
    environment: LabEnvironment = field(default_factory=LabEnvironment)
    provisional_types: set[str] = field(default_factory=set)
    _table: Optional[_ServingTable] = field(default=None, init=False, repr=False, compare=False)

    def assess_device_type(self, device_type: str) -> SecurityAssessment:
        """Derive the isolation level to enforce for an identified device-type.

        A label the identifier does not know (``"unknown"`` included) gets
        strict isolation; a known one is graded by its vulnerabilities.
        Repeated calls for a type return the same assessment object until
        the serving table is rebuilt.
        """
        table = self._table
        identifier = self.identifier
        database = self.vulnerability_db
        if (
            table is None
            or table.identifier is not identifier
            or table.revision != identifier.revision
            or table.database is not database
            or table.database_revision != database.revision
            or table.environment is not self.environment
        ):
            table = self._table = _ServingTable(identifier, database, self.environment)
        provisional = device_type in self.provisional_types
        entries = table.provisional if provisional else table.assessed
        assessment = entries.get(device_type)
        if assessment is None:
            assessment = self._assess(device_type, provisional)
            # Labels the identifier does not know all assess as "unknown";
            # only that label is kept, so arbitrary labels cannot grow it.
            if assessment.device_type == device_type:
                entries[device_type] = assessment
        return assessment

    def _assess(self, device_type: str, provisional: bool) -> SecurityAssessment:
        known = device_type in self.identifier.bank
        vulnerabilities = tuple(self.vulnerability_db.query(device_type)) if known else ()
        level = isolation_level_for(known, vulnerabilities)
        if not known:
            device_type = "unknown"
        elif level is IsolationLevel.TRUSTED and provisional:
            # No vulnerabilities on record means "nobody has looked yet"
            # for an auto-learned type, not "audited clean".
            level = IsolationLevel.RESTRICTED
        allowed: tuple[str, ...] = ()
        if level is IsolationLevel.RESTRICTED:
            allowed = vendor_cloud_destinations(device_type, self.environment)
        return SecurityAssessment(
            device_type=device_type,
            isolation_level=level,
            vulnerabilities=vulnerabilities,
            allowed_destinations=allowed,
        )
